package splitvm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/nisa"
	"repro/internal/target"
)

// goldenNative holds the SHA-256 of nisa.AppendProgram over the native code
// every Table 1 kernel and every generated module size compiles to on every
// target. The bytes are what the disk cache and the method store persist:
// changing how compiled code is represented in memory must not move one.
var goldenNative = map[string]string{
	"gen/1/mcu":                        "f85af98b62e22d35201395da4d82833324160de387edda28ba4a928125e1f4ee",
	"gen/1/powerpc":                    "bc1ab17ca388fbc7fa28ec7f9c09ae73ed666e95855238ed429e4bc24d849dea",
	"gen/1/spu":                        "1a3afdd70d37687d4cc0ecc12009baf036d8db667cece86804592008e012c44c",
	"gen/1/ultrasparc":                 "d52299bc30f97ff9ee0ca196b00555dd3d177b2b4822c9b34b227a001cd4b1a8",
	"gen/1/widevec-256":                "9ae9f6997bbf674d1b9abe17be5c9131e945e100eee918c5f5e8364d72b7a82f",
	"gen/1/x86-sse":                    "15eabacb825c0d3eb8a786b055e5aa25d5978a1f448545ce6c888cf9102d03bc",
	"gen/16/mcu":                       "6290f84044f028c88373a6318ff44ca507499f0b53ace4ea2d9049533f196b62",
	"gen/16/powerpc":                   "ecf0023f7c0eb2078648149ed859e8e441ccde6a9586f33f0294444f5e7704bd",
	"gen/16/spu":                       "95d24b7b4566851913393d9ae41526babfd232cfc1ebf9bce7e2e3341bde3ff2",
	"gen/16/ultrasparc":                "280cbdea236bb20481ada2f480731daf1ffc26927443b80608543f2d6cd3fcf6",
	"gen/16/widevec-256":               "557d91a4998ab55a38cd2d9064a4aa5981d4e7f7a7970a98099e89bd265191f8",
	"gen/16/x86-sse":                   "9a902d1b10256c51216683a4cc63fcf46bf14662fd49f63894e59253cfa40021",
	"gen/2/mcu":                        "c6358e56aa15090cb2ddc8683cfb742bce21ba4a4d4ab58a18ad5b35fcd7423c",
	"gen/2/powerpc":                    "e980860dad55273c6ea1f89461c001ce6a16b578a2fd1488106921354cf2870b",
	"gen/2/spu":                        "d92f46f7ff73eb7e0e42a066d754345cb86972ce72add641da5b6d89ef4bbe7b",
	"gen/2/ultrasparc":                 "f4c4eadd7098938e129e5d1451e422b2fb531a36c43231a369efdb3052a39a7b",
	"gen/2/widevec-256":                "376f97de0a8a6b0bc48a4bff68f3c9a44f981e890051d7f31c7e9d55c2ff561f",
	"gen/2/x86-sse":                    "22367b2d7fd4c5c9f0c61bd4a858b2d10af7868d4fd909c3c146532bab9f1128",
	"gen/64/mcu":                       "f89961480cc98d437e66423c663fb3f44940cb4ee4409dbea1eeecfbd5be9853",
	"gen/64/powerpc":                   "d0bba878466cd25b430a1136c75f4ec679aafa86210f8686afa139efcb75c592",
	"gen/64/spu":                       "1a5aad7dba694a31addcf387f244b2e30a8c4700d40e85dedf7ef59477ec21af",
	"gen/64/ultrasparc":                "530eac27e632b445a9d59f7ca031a03bf332bc4518de57ccba0fed7cc0ccfd65",
	"gen/64/widevec-256":               "32112c6b5c18ad1c530dc2abbac01830e167b61f19a0158b99565522cb4f841a",
	"gen/64/x86-sse":                   "33752b879a3f30c32f1f355bf4845741ef346f319e44d776c32837d7a8be3c07",
	"kernel/checksum/mcu":              "996a72ed7e82401a8d21b3641835612c43dbf9f1b57781cd76e0f8a449dbffaf",
	"kernel/checksum/powerpc":          "9658be88bb4e77c36c8ab9826d969dd0368bc5dc3fe0c93721d0be7a612f788b",
	"kernel/checksum/spu":              "1cd477f55268f9a723c20bdafea5170f1a3a269ce68ddc0e9c6aa871b0042fba",
	"kernel/checksum/ultrasparc":       "4a1a91553444dabdf6bf554c61577f67d0a6d8da7c4ebf09b6128c114b4a6103",
	"kernel/checksum/widevec-256":      "b5c088a2811f6e97ff1e92c0e3b997645c5520322060b6a886ed019880fb7ccb",
	"kernel/checksum/x86-sse":          "b6ac942bf18e8e09f29f44c3df71fd7643b8329ad84760c86cdb26f0a6632882",
	"kernel/dotprod_fp/mcu":            "bf66dbdc5831c01986b6a6b4bc554f44cee304d81fbab3de18a26fe6faffcfad",
	"kernel/dotprod_fp/powerpc":        "30197b5ea6389f550c66c7aca2293482081d405fca71f87a4a79ed9329e45b6b",
	"kernel/dotprod_fp/spu":            "302a695e6d5e827ce88f05b9594d00d9777b9daecf19af3ddb9f30a4f62b9655",
	"kernel/dotprod_fp/ultrasparc":     "79eb07f081a050962523c3cd85c1d51819a94767e2a9d36a65a248eb2896f5e2",
	"kernel/dotprod_fp/widevec-256":    "f6efad9d6c0d7ddb36f72d5acce45e45672af42202f74f81d52ed7e85f89f2e8",
	"kernel/dotprod_fp/x86-sse":        "3805359d25a980a5ec3ca1afc5a9bdeba048fe9c122f05dbf498f2c25a9e9f11",
	"kernel/dscal_fp/mcu":              "b0cc9c3237f4436c0d7ee705b7883c0eabd1a90c70687d9f04be60d7bd5b3623",
	"kernel/dscal_fp/powerpc":          "57fa8318791d5d1313d90e90a0136df18010ca8f34d0b33c01b90164955097ec",
	"kernel/dscal_fp/spu":              "205d971e5bedd2ff9bdfd34d11baa6a9eedfec03d791680b8aeab5dc8c1c7477",
	"kernel/dscal_fp/ultrasparc":       "0700fc534d19ce1d710ef5f4b847cd3120a9ee20b7f30167cdfb54dfcdfc2fb0",
	"kernel/dscal_fp/widevec-256":      "0cedd606585780b79439589af90b8a1a4e89751acdad8704be23f8e412a75971",
	"kernel/dscal_fp/x86-sse":          "c3a6e53b80c11bb56bbbb168878695ed7ffe62a7c457a28fcbab5afc01e19ed7",
	"kernel/fir/mcu":                   "bd42130fb75277f43cc0c66e30b6ee70f3035db820066db84ed567cf9aff4957",
	"kernel/fir/powerpc":               "52962c65f5832b7a78cfbe7555aa9423f19a1f43d494a33028b3554095979f60",
	"kernel/fir/spu":                   "d3f68f8a8b1dde3c9124f4178dfd2c2a0404d5a8d015554558bdda84a1f28a9e",
	"kernel/fir/ultrasparc":            "1d081714b8d14c2e1fb9a193663ca264c5c0d52282c6024d4a6593628d5c449d",
	"kernel/fir/widevec-256":           "a2de358ec1c9b7d7f7716305c4ff5d9b23151f50e5b498a2fa09cf029fd4ee54",
	"kernel/fir/x86-sse":               "4cd324aeb20a0ed7be406206ad6c45275ba086a4f7f855ab9e6b3fa331233552",
	"kernel/max_u8/mcu":                "3059b37f274fd6040c48104150d1add8d0af6412106ae8b45a3afb6d00ead73f",
	"kernel/max_u8/powerpc":            "909e8eba90afd0374f6ba4c48f6ae5fd0f3958c1d528faf90eecc7618a97bdf9",
	"kernel/max_u8/spu":                "7fe49edd6edf9d88395da42231675f99bd173f291453bec30f17e3cf10108eaf",
	"kernel/max_u8/ultrasparc":         "70d5afec2da77c7ad702fc16ea636a11981d92d30f036b0114afeb166e2ca8e9",
	"kernel/max_u8/widevec-256":        "17eb79124161f5d2d43e8878724bd464db875b7ccb938d3a0b0e1731cfacbcbf",
	"kernel/max_u8/x86-sse":            "442e6dc4ca189507c448fedd76ae0ff34413861e1f2e26afd9ac5592311ac32b",
	"kernel/min_u8/mcu":                "f03ddda6db97535bd7dbef4e97b3882114852298d6af54f2586e09b87747eceb",
	"kernel/min_u8/powerpc":            "5bc24dcd286af6093cf460aa5a10a128b3ad35e1d496e4af7819c4773db73ccd",
	"kernel/min_u8/spu":                "f81c6e1db9479dd8a433d6b960048c13388f901c3444f971fa75cd019eed1ba8",
	"kernel/min_u8/ultrasparc":         "330ce89504b700c7b1872280d2f37f4866bfaa79e21b93dd1248a08212334c27",
	"kernel/min_u8/widevec-256":        "8f42deeb55034c633c66667131a437fbc464b586f189e3e462c5bdf6e283d32e",
	"kernel/min_u8/x86-sse":            "3be67e79df67996407b7af6079ab2521a82ff84f5fabd241251a11324976788c",
	"kernel/saxpy_fp/mcu":              "5586e75f514bed2fb1bb1098b1fa6768cd95e6f7f62a45e8d1207e8507f1bce2",
	"kernel/saxpy_fp/powerpc":          "92bec39f7711dcc2b5c5c051d8123c54e714bfb143c74d13c553530ed1fbe468",
	"kernel/saxpy_fp/spu":              "2541341d413e0f21de9b8572f458e24467b7e5cac6a5f4b8b113d62d5dd168e3",
	"kernel/saxpy_fp/ultrasparc":       "e2650152f7beab355a952aa4eff4454cb71550ee69892d4d169dcedfa4638572",
	"kernel/saxpy_fp/widevec-256":      "c64de6bad3d0032ec4a8e817304f66f3d979f8d9b52e94b8f44dab6688344904",
	"kernel/saxpy_fp/x86-sse":          "07434bf2776b2d1b2f472f26bfc212d89885a26ef7ce5b548fdfd20d09462ec3",
	"kernel/scale_add_f32/mcu":         "dc081318d21cb05ac222c5ec38d489755f87f50c2c55c568779113eb24100531",
	"kernel/scale_add_f32/powerpc":     "6155ab35335b6aa1686c4908ce39023b35249a7afd1f101639a9330dd4bc28da",
	"kernel/scale_add_f32/spu":         "720cbf15c25bc9026e2c99c5b74e2c437b4b6ad6d2216b2aa462582b52f1f0db",
	"kernel/scale_add_f32/ultrasparc":  "b2e3d358bf7a743d9d2b698fcfada8f6e126f629ee132d5fca38cdccba8d1ea9",
	"kernel/scale_add_f32/widevec-256": "50f4ec31f52a2488dcde0c3a49eaee2bd6e86b7409094b62d81504a27df9bb85",
	"kernel/scale_add_f32/x86-sse":     "94af20f5b04349f82468cd6fd261ebd155e47d71ca083538748f0b9c3409b027",
	"kernel/sum_i32/mcu":               "cf348d55fdde2052da48639cee6763a0380fef95d1c1b11df5a6422788604dc3",
	"kernel/sum_i32/powerpc":           "7bdf449e4c6c910a22d88018aad6008f5cb76b9680fe1faae336627bb4c148fa",
	"kernel/sum_i32/spu":               "110a0a0185b175e550a1846f1c44f77c155da386ff27bd3dafd10eda77bc62a3",
	"kernel/sum_i32/ultrasparc":        "6ec0d94e934403c08714a9842573b34092b1b03cd3a3d3fc7cafae5abce45ea6",
	"kernel/sum_i32/widevec-256":       "e269117ac2947be15de39c34219123e6dc3cece8992ecb104c3659102bca426e",
	"kernel/sum_i32/x86-sse":           "558b03e7257aedc28c27d1a44b4d952cf14b350e6d5f218e7f5e9b9a5749658e",
	"kernel/sum_u16/mcu":               "d398b2b32a885b357f18844e649110809c6e87bfb0b2256c51b84fcf2f74e801",
	"kernel/sum_u16/powerpc":           "9182ea2e6242c54308cb2cedab6c79288ca8dc64e704fd4fa3db7d64aebf1e9d",
	"kernel/sum_u16/spu":               "c2c43b5e0447b40ce48f24115f7794852754b54f4b71e0831618059379c9f2bf",
	"kernel/sum_u16/ultrasparc":        "1c9dcd86000cd47f810458ac8b888c111729342e129614eb4f2d8806d88eed51",
	"kernel/sum_u16/widevec-256":       "5186356f3b66a94ebc33020fa5ed254b286118df77a9e20022464e2fa660c982",
	"kernel/sum_u16/x86-sse":           "fe70e4e14f2f9c16ce3fb5f07d7f8e0a391ef12b793dc7e9eed5f63084ac9bbd",
	"kernel/sum_u8/mcu":                "2f24f1076d23c05e388016f03381714e838b670f9d0c1b985ba50136d4498a39",
	"kernel/sum_u8/powerpc":            "225e1fd14b20aa693505a48495f882246cd23ada1a55dcde2dc427a2482afc79",
	"kernel/sum_u8/spu":                "b4aa4ce95e049e4db4e988bd757b04de28032adae0edcddc4ea1d58e5dd5f966",
	"kernel/sum_u8/ultrasparc":         "e5bdac3c73819aab244ba6018b13c1909f8e48e532fb73cf29266ab56314f364",
	"kernel/sum_u8/widevec-256":        "03295ffaa8d3a7ecdf958046b6bf047f40f28f5fd8a7b677a86a94ecf5d5d643",
	"kernel/sum_u8/x86-sse":            "4aef4cc4bf2443d29e29f21ed2f9b3e6e3534fbfc2bd8a513b3c4631a3cf2ac0",
	"kernel/vecadd_fp/mcu":             "efc86dfa19add33a124e1d9060e3183239b092e8c62a32639b4bdf8892cce08d",
	"kernel/vecadd_fp/powerpc":         "1ecefcc9e680c7153b81f971da671d930e31d8385acb1bd1e73e6c90401cd2b9",
	"kernel/vecadd_fp/spu":             "b5bc11c7fedefcccc15e70e5f48f1e0365f4d8bc2cb81475469c09ce2008ee09",
	"kernel/vecadd_fp/ultrasparc":      "989716c0294d1206f3e0200c2e4fbc55b489a40450b5a87b9d7baf83a9c3111f",
	"kernel/vecadd_fp/widevec-256":     "6512bef89e1b254f7627a5b46c626b8c65133978dc0aba79829c297b04118acc",
	"kernel/vecadd_fp/x86-sse":         "0ec356be7235021221140c276ce2075af0b15cc1e635fa4f4a648a37456fa975",
}

func TestNativeCodeMatchesGolden(t *testing.T) {
	srcs := map[string]string{}
	for _, k := range Kernels() {
		srcs["kernel/"+k.Name] = k.Source
	}
	for _, n := range benchSizes {
		srcs[fmt.Sprintf("gen/%d", n)] = genTemplateSource(n)
	}
	eng := New()
	got := map[string]string{}
	for name, src := range srcs {
		m, err := eng.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tgt := range target.All() {
			dp, err := eng.Deploy(m, WithTargetDesc(tgt))
			if err != nil {
				t.Fatalf("%s on %s: %v", name, tgt.Name, err)
			}
			sum := sha256.Sum256(nisa.AppendProgram(nil, dp.d.Program))
			got[name+"/"+string(tgt.Arch)] = hex.EncodeToString(sum[:])
		}
	}
	for k, sum := range got {
		if want, ok := goldenNative[k]; !ok {
			t.Errorf("%s: no golden native code (SHA-256 %s)", k, sum)
		} else if sum != want {
			t.Errorf("%s: native SHA-256 %s, golden %s", k, sum, want)
		}
	}
	for k := range goldenNative {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden native code of a program that no longer exists", k)
		}
	}
}
