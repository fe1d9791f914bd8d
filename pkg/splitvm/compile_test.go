package splitvm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cil"
)

// genTemplateSource writes a module of n methods from the four templates of
// the repository benchmark's program generator (benchmark/programs.go):
// polynomial loops, xor loops, array loops the vectorizer fires on, and
// call-throughs, with an entry point that sums up to three earlier methods.
// Constants come from a fixed seed, so a size always yields the same text.
func genTemplateSource(n int) string {
	const (
		polyLoop = iota
		xorLoop
		arrayLoop
		callThrough
	)
	shapes := [20]int{
		polyLoop, xorLoop, arrayLoop, polyLoop, xorLoop, callThrough, xorLoop, polyLoop, xorLoop, polyLoop,
		arrayLoop, xorLoop, polyLoop, callThrough, polyLoop, xorLoop, arrayLoop, polyLoop, xorLoop, callThrough,
	}
	r := rand.New(rand.NewSource(int64(n)))
	var b strings.Builder
	for i := 0; i < n; i++ {
		c0, c1, c2 := r.Int63n(1<<20), 1+r.Int63n(1<<16), r.Int63n(1<<12)
		fmt.Fprintf(&b, "i64 m%d(i32 n) {\n", i)
		switch kind := shapes[(n*7+i)%len(shapes)]; {
		case i == n-1 && n > 1:
			var terms []string
			for j := 0; j < 3 && j < i; j++ {
				terms = append(terms, fmt.Sprintf("m%d(n)", (n*5+j*(i/3+1))%i))
			}
			fmt.Fprintf(&b, "    return %s;\n", strings.Join(terms, " + "))
		case kind == callThrough && i > 0:
			fmt.Fprintf(&b, "    return m%d(n) * %d + %d;\n", (n+i*3)%i, 1+c1%7, c2)
		case kind == arrayLoop:
			b.WriteString("    i32 a[] = new i32[n];\n    i32 b[] = new i32[n];\n    u16 c[] = new u16[n];\n")
			fmt.Fprintf(&b, "    for (i32 i = 0; i < n; i++) { a[i] = i * %d + %d; }\n", 1+c1%1000, c2%1000)
			fmt.Fprintf(&b, "    for (i32 i = 0; i < n; i++) { b[i] = a[i] * %d + a[i]; }\n", 1+c0%15)
			b.WriteString("    for (i32 i = 0; i < n; i++) { c[i] = (u16) b[i]; }\n")
			b.WriteString("    u32 s = 0;\n    for (i32 i = 0; i < n; i++) { s = s + c[i]; }\n")
			b.WriteString("    return (i64) s;\n")
		case kind == xorLoop:
			fmt.Fprintf(&b, "    i64 s = %d;\n", c0)
			fmt.Fprintf(&b, "    for (i32 i = 0; i < n; i++) { s = (s ^ (((i64) i) * %d)) + %d; }\n", c1, c2)
			b.WriteString("    return s;\n")
		default:
			fmt.Fprintf(&b, "    i64 s = %d;\n", c0)
			fmt.Fprintf(&b, "    for (i32 i = 1; i <= n; i++) { s = s + (i64) (i * %d) + %d; }\n", c1, c2)
			b.WriteString("    return s;\n")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// exampleSources returns the MiniC programs the examples/ commands compile:
// every top-level `source` constant, and the kernel pair the heterogeneous
// example concatenates.
func exampleSources(t testing.TB) map[string]string {
	out := map[string]string{}
	dirs, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	for _, path := range dirs {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if len(vs.Names) != 1 || vs.Names[0].Name != "source" || len(vs.Values) != 1 {
					continue
				}
				lit, ok := vs.Values[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				src, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				out[filepath.Base(filepath.Dir(path))] = src
			}
		}
	}
	var hetero string
	for _, k := range Kernels() {
		if k.Name == "checksum" || k.Name == "vecadd_fp" {
			hetero += k.Source
		}
	}
	out["heterogeneous"] = hetero
	return out
}

// goldenSources is every program the golden identity test compiles.
func goldenSources(t testing.TB) map[string]string {
	out := exampleSources(t)
	for _, k := range Kernels() {
		out["kernel/"+k.Name] = k.Source
	}
	for _, n := range benchSizes {
		out[fmt.Sprintf("gen/%d", n)] = genTemplateSource(n)
	}
	return out
}

// goldenEncodings holds the SHA-256 of the deployable bytes of every golden
// source, compiled with the current and with the legacy annotation schema.
// Rebuilding the front end, the builders or the encoders must not move one
// byte of what ships.
var goldenEncodings = map[string]string{
	"gen/1/v0":                "f8ddcda14f85ef0473260dfe698eba17cffb51f21b2ef555dc2c0068bf39200e",
	"gen/1/v1":                "8cf603b30b37e7d5866de061fff353a86908e8eeb7b53937712115f7ac5b3606",
	"gen/16/v0":               "2e63cc275e55303905e57dfdfb4012820fd3daef39351c45f7d708073ff85e3a",
	"gen/16/v1":               "53f3c27457ad16033c7b7ea80ec7717314b2d7da4819007262ccf9f211340a85",
	"gen/2/v0":                "371336fc3e391fbdca9a6e9719721820d9cae88883e4ad3c68f1e76c9a6d04b3",
	"gen/2/v1":                "661228ea0258a81087f90af5c93e506cb55fa45adc573b15d990e32258c344c7",
	"gen/64/v0":               "c47729e8f2e4bb9930a734a7f1b1e0d623df93ea09456c8ec4e2fe1f8364ac08",
	"gen/64/v1":               "f371094fac628a1615bab2dc6e0e3ffbfffbcae4b0a73425ed0bee669d165432",
	"heterogeneous/v0":        "60eaa8c9d351e86c307872fbf4681541ed2788c81c235f232e4fa1d0aa0d0f3a",
	"heterogeneous/v1":        "6f948bb186a71cd51bca409925d8e3b2ded2b48a9bbb0b93eed3e6a625c5b8c5",
	"kernel/checksum/v0":      "7f4a87e6e11d501357d97b33a04b0dda43f6b7cf0e09228ef9563f04e3cb1cfb",
	"kernel/checksum/v1":      "dc369e3c85b4fd13775b13195a15c6cfa3048fd4d1b44166decf078c85c7e57b",
	"kernel/dotprod_fp/v0":    "62c529c3b905cab8e5596a0fb629abf61ee1f31491c71afcfb489b8594d4b929",
	"kernel/dotprod_fp/v1":    "d69503f73dcbd91f0d778ef728a8be3d12cb5b16bddd2b10a37e2daaecdbbde7",
	"kernel/dscal_fp/v0":      "546cca9c0d470729425d1df31ebad52e3ca04f80e4f903a6cfc62e0099114358",
	"kernel/dscal_fp/v1":      "843ef73e44205f56af88ce6c74a382b5ff55dd43fcc7c7755aa600f769771b49",
	"kernel/fir/v0":           "ef90d039099bc0dcc09278ecfae068ecc7c0a1e7df95d9fe4cb184a94cf058ad",
	"kernel/fir/v1":           "161e47393a117306d224cf49b1dafd0dca64432acb5e87a5d128f4ddf32bd5c7",
	"kernel/max_u8/v0":        "779ede2dac429cd49099f2ff69bbc7469884312ebce58ddc945542e266ea1c91",
	"kernel/max_u8/v1":        "93f6f2ceb5738c444e1f762e18506016670178fda6407cb00532f5b8c7fc3a96",
	"kernel/min_u8/v0":        "4777df9f83f4973d62b2f1289ddfe740cfbe28531bd8200436b7d72249c0f0a9",
	"kernel/min_u8/v1":        "7fae0e1abf85a97ea74a6061d25b91b3db2c635ed6aa44d8035c05faf8ff1944",
	"kernel/saxpy_fp/v0":      "c560f9116f5308a140ba858766971c61dd63a9bfc215688fab8d18b923d6f038",
	"kernel/saxpy_fp/v1":      "d455b283326b7c0cb4f389dc8166871b76d68c196f17b99f4e71257088020c15",
	"kernel/scale_add_f32/v0": "ba1146f17ae9e5e1cf688801bf05483b44f65354f27b2cf0366460360a437f8c",
	"kernel/scale_add_f32/v1": "641207d066a7e4d2409565f334237193e2bfcb219d0f6f1366943fb783e1416b",
	"kernel/sum_i32/v0":       "2868935a95096fac227c656fb0ff4dda525d07e12cd8c0fc0a7b1758c4e59f18",
	"kernel/sum_i32/v1":       "5d0f1e33f7cdda9240e4abb5584455dd9e58a4f0c1ddb54579c3177709a09eea",
	"kernel/sum_u16/v0":       "49026590fbdd56a0583c59f886623842d531b7c437817e9653cf98531493e93a",
	"kernel/sum_u16/v1":       "285643038ab39d96d3d9ad7a0512faf6dfeb8fe311e8de3a1ba40515ad0f95d9",
	"kernel/sum_u8/v0":        "de2486d44029fb133b5a1afb113a638812bc9cb5fb6109022d56b265f9807860",
	"kernel/sum_u8/v1":        "8f9f004c738dd8f8ec5bb13442e4197eca12bea86927e27355ae4abed36adb74",
	"kernel/vecadd_fp/v0":     "8e3b71352ae841e1cb36dddfbbc9d10040c55e58e0bb20aa8b936be59d8918d6",
	"kernel/vecadd_fp/v1":     "b50099bf2f6ba3fc28ef64a36f71260067f7a87f2a710b533e5b19bdda45a17a",
	"quickstart/v0":           "4f7cc054be1258d1b2ec7e2a834406f1187e2737f9238eae2801f7d8217d0122",
	"quickstart/v1":           "7515ba2e1f7c68d41696941c9ba740971be7e5fc3023ab1a8b01bfa33eeec074",
	"splitregalloc/v0":        "fc5ee3dd5acb925e4d963263e4b7168a1b5c65061c3b8d0181d32a842a5fbfb2",
	"splitregalloc/v1":        "dfe5babab3cccd0c2bb2eb33ed8738b8e8491c533c9af924e1c890bfa6b436c6",
}

func TestEncodedBytesMatchGolden(t *testing.T) {
	srcs := goldenSources(t)
	got := map[string]string{}
	for name, src := range srcs {
		for _, v := range []uint32{AnnotationV1, AnnotationV0} {
			m, err := New().Compile(src, WithModuleName(strings.ReplaceAll(name, "/", "_")), WithAnnotationVersion(v))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(m.Encoded())
			got[fmt.Sprintf("%s/v%d", name, v)] = hex.EncodeToString(sum[:])
		}
	}
	for k, sum := range got {
		if want, ok := goldenEncodings[k]; !ok {
			t.Errorf("%s: no golden encoding (SHA-256 %s)", k, sum)
		} else if sum != want {
			t.Errorf("%s: encoded SHA-256 %s, golden %s", k, sum, want)
		}
	}
	for k := range goldenEncodings {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden encoding of a source that no longer exists", k)
		}
	}
}

// TestCompileConcurrently: the offline step keeps scratch only per call, so
// compiles on four goroutines at once produce exactly the bytes each
// produces alone. Run under -race.
func TestCompileConcurrently(t *testing.T) {
	srcs := make([]string, len(benchSizes))
	want := make([]string, len(benchSizes))
	for i, n := range benchSizes {
		srcs[i] = genTemplateSource(n)
		m, err := New().Compile(srcs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(m.Encoded())
	}
	eng := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range srcs {
					j := (i + g) % len(srcs)
					m, err := eng.Compile(srcs[j])
					if err != nil {
						t.Error(err)
						return
					}
					if string(m.Encoded()) != want[j] {
						t.Errorf("goroutine %d: %d-method module encodes differently", g, benchSizes[j])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompiledModuleCarriesItsProofs: Engine.Compile hands deployments the
// proofs the code generator's verification attached to the module it
// returns. MethodProof returns an attached proof itself and proves a method
// without one afresh on every call, so two calls agreeing on the pointer
// show the proof was there.
func TestCompiledModuleCarriesItsProofs(t *testing.T) {
	m, err := New().Compile(genTemplateSource(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, meth := range m.mod.Methods {
		p1, err := cil.MethodProof(m.mod, meth)
		if err != nil {
			t.Fatalf("%s: %v", meth.Name, err)
		}
		if p2, _ := cil.MethodProof(m.mod, meth); p1 != p2 {
			t.Fatalf("%s carries no proof from compilation", meth.Name)
		}
	}
	if _, err := New().Deploy(m, WithTarget(onlineTargets[0])); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCompileOffline measures Engine.Compile — parse, check, optimize,
// generate, verify, annotate, encode, hash — on modules of the benchmark's
// small (1-2 methods), medium (16) and large (64) classes. Run with
// -benchmem: allocations per compile are the quantity the offline step's
// design keeps proportional to the AST and the emitted code.
func BenchmarkCompileOffline(b *testing.B) {
	for _, n := range benchSizes {
		src := genTemplateSource(n)
		b.Run(fmt.Sprintf("methods=%d", n), func(b *testing.B) {
			eng := New()
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := eng.Compile(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
