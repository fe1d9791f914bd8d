package prim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cil"
)

var (
	vecBinOps = []cil.Opcode{cil.VAdd, cil.VSub, cil.VMul, cil.VMax, cil.VMin}
	vecRedOps = []cil.Opcode{cil.VRedAdd, cil.VRedMax, cil.VRedMin}
	// nonLaneKinds cannot be vector elements (Lanes() == 0); the vector unit
	// still has to agree with the reference loops on them.
	nonLaneKinds = []cil.Kind{cil.Void, cil.Bool, cil.Ref, cil.Vec}
	allVecKinds  = append(append([]cil.Kind{}, vecKinds...), nonLaneKinds...)
)

// edgeLanes returns the lane bit patterns of kind k where the lane-typed
// code could part from the per-lane reference: zeros of both signs,
// infinities, quiet and signalling NaNs with payloads, denormals, values
// whose float64 sums and products round or overflow in float32, integer
// extremes, all-ones, and unsigned values above the signed maximum.
func edgeLanes(k cil.Kind) []uint64 {
	switch k {
	case cil.F32:
		return []uint64{
			0x00000000, 0x80000000, // ±0
			0x7f800000, 0xff800000, // ±Inf
			0x7fc00000, 0x7fc00001, 0xffc12345, // quiet NaNs
			0x7f800001, 0x7fa12345, 0xff800001, 0xffbfffff, // signalling NaNs
			0x00000001, 0x007fffff, 0x80000001, // denormals
			0x00800000,             // smallest normal: halves and squares underflow
			0x7f7fffff, 0xff7fffff, // ±MaxFloat32: sums and products overflow
			0x3f800000, 0x3f800001, 0xbf800001, // 1, 1+ulp, -(1+ulp): products round
			0x4b800000, 0x4b7fffff, // 2^24 and its predecessor: sums round
			0x0da24260, // ~1e-30: products underflow to denormals
		}
	case cil.F64:
		return []uint64{
			0x0000000000000000, 0x8000000000000000,
			0x7ff0000000000000, 0xfff0000000000000,
			0x7ff8000000000000, 0x7ff8000000000001, 0xfff8deadbeef0001,
			0x7ff0000000000001, 0x7ff4000000abcdef, 0xfff0000000000001, 0xfff7ffffffffffff,
			0x0000000000000001, 0x000fffffffffffff, 0x8000000000000001,
			0x0010000000000000,
			0x7fefffffffffffff, 0xffefffffffffffff,
			0x3ff0000000000000, 0x3ff0000000000001, 0xbff0000000000001,
			0x4340000000000000, 0x433fffffffffffff,
			0x47efffffe0000000, 0x47f0000000000000, // MaxFloat32 and 2^128 as float64
		}
	}
	bits := uint(8 * k.Size())
	if bits == 0 || bits > 64 {
		bits = 64
	}
	ones := ^uint64(0) >> (64 - bits)
	top := uint64(1) << (bits - 1)
	return []uint64{0, 1, 2, ones, ones - 1, top, top - 1, top + 1, 0x55AA55AA55AA55AA & ones, 0xAA55AA55AA55AA55 & ones}
}

// vecOfLanes lays lane patterns out little-endian, cycling through lanes
// until the register is full.
func vecOfLanes(k cil.Kind, lanes ...uint64) Vec {
	sz := k.Size()
	if sz == 0 || sz > 8 {
		sz = 8
	}
	var v Vec
	for i := 0; i < len(v)/sz; i++ {
		for b := 0; b < sz; b++ {
			v[i*sz+b] = byte(lanes[i%len(lanes)] >> (8 * b))
		}
	}
	return v
}

// checkVecPair compares every element-wise operation on (a, b), with each
// legal aliasing of the destination, and every reduction of a, against the
// per-lane reference (see sameVecResult for the one host-dependent case).
func checkVecPair(t *testing.T, k cil.Kind, a, b Vec) {
	t.Helper()
	for _, op := range vecBinOps {
		want := referenceVecBinary(op, k, a, b)
		got := Vec{0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A}
		if VecBinaryNoTrap(&got, op, k, &a, &b); !sameVecResult(op, k, a, b, got, want) {
			t.Fatalf("%s.%s(%x, %x) = %x, want %x", op, k, a, b, got, want)
		}
		overA, overB := a, b
		VecBinaryNoTrap(&overA, op, k, &overA, &b)
		VecBinaryNoTrap(&overB, op, k, &a, &overB)
		if overA != got || overB != got {
			t.Fatalf("%s.%s(%x, %x) in place = %x / %x, want %x", op, k, a, b, overA, overB, want)
		}
		if wrapped, err := VecBinary(op, k, a, b); err != nil || wrapped != got {
			t.Fatalf("VecBinary(%s, %s, %x, %x) = %x, %v, want %x", op, k, a, b, wrapped, err, want)
		}
	}
	self := a
	VecBinaryNoTrap(&self, cil.VMul, k, &self, &self)
	if want := referenceVecBinary(cil.VMul, k, a, a); !sameVecResult(cil.VMul, k, a, a, self, want) {
		t.Fatalf("vmul.%s(%x) onto itself = %x, want %x", k, a, self, want)
	}
	for _, op := range vecRedOps {
		want := referenceVecReduce(op, k, a)
		got := VecReduceNoTrap(op, k, &a)
		if !sameReduceResult(op, k, got, want) {
			t.Fatalf("%s.%s(%x) = %+v, want %+v", op, k, a, got, want)
		}
		if wrapped, err := VecReduce(op, k, a); err != nil || !scalarEq(wrapped, got) {
			t.Fatalf("VecReduce(%s, %s, %x) = %+v, %v, want %+v", op, k, a, wrapped, err, want)
		}
	}
}

// TestVecOpsMatchReferenceOnRandomVectors is the seeded property test of the
// vector unit: 10000 vector pairs per element kind, every operation on each.
// A quarter of the lanes are drawn from the edge table so that NaNs,
// infinities and integer extremes meet random partners too.
func TestVecOpsMatchReferenceOnRandomVectors(t *testing.T) {
	for _, k := range allVecKinds {
		rng := rand.New(rand.NewSource(0x5EED + int64(k)))
		edges := edgeLanes(k)
		randVec := func() Vec {
			lanes := make([]uint64, 16)
			for i := range lanes {
				if rng.Intn(4) == 0 {
					lanes[i] = edges[rng.Intn(len(edges))]
				} else {
					lanes[i] = rng.Uint64()
				}
			}
			return vecOfLanes(k, lanes...)
		}
		for i := 0; i < 10000; i++ {
			checkVecPair(t, k, randVec(), randVec())
		}
	}
}

// TestVecOpsMatchReferenceOnEdgeTable meets every edge lane with every other
// in both operand positions, and reduces vectors that hold the edge lanes in
// several orders (a NaN first, last, between ordered values).
func TestVecOpsMatchReferenceOnEdgeTable(t *testing.T) {
	for _, k := range allVecKinds {
		edges := edgeLanes(k)
		for _, x := range edges {
			for _, y := range edges {
				checkVecPair(t, k, vecOfLanes(k, x), vecOfLanes(k, y))
				checkVecPair(t, k, vecOfLanes(k, x, y), vecOfLanes(k, y, x))
			}
		}
		var mixed []Vec
		for start := range edges {
			for _, step := range []int{1, 3, len(edges) - 1} {
				lanes := make([]uint64, 16)
				for i := range lanes {
					lanes[i] = edges[(start+i*step)%len(edges)]
				}
				mixed = append(mixed, vecOfLanes(k, lanes...))
			}
		}
		for i, a := range mixed {
			checkVecPair(t, k, a, mixed[(i*7+1)%len(mixed)])
		}
	}
}

func TestVecSplatMatchesReference(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, 1e39, -1e39, 1 + 1.0/(1<<30), 1e-40, 1e-46, math.SmallestNonzeroFloat64,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff4000000abcdef),
		math.Float64frombits(0xfff0000000000001)}
	rng := rand.New(rand.NewSource(0x5EED))
	for _, k := range allVecKinds {
		var scalars []Scalar
		for _, e := range edgeLanes(k) {
			scalars = append(scalars, Scalar{I: int64(e)}, Scalar{I: ^int64(e)})
		}
		for _, f := range floats {
			scalars = append(scalars, Scalar{F: f}, Scalar{I: rng.Int63(), F: f})
		}
		for i := 0; i < 10000; i++ {
			scalars = append(scalars, Scalar{I: int64(rng.Uint64()), F: math.Float64frombits(rng.Uint64())})
		}
		for _, s := range scalars {
			want := referenceVecSplat(k, s)
			got := Vec{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
			if VecSplat(&got, k, s); got != want {
				t.Fatalf("VecSplat(%s, %+v) = %x, want %x", k, s, got, want)
			}
		}
	}
}

// TestLaneAccessorsMatchReference pins LoadScalar/StoreScalar, through
// LaneGet/LaneSet, to the byte-at-a-time accessors for every kind and lane,
// the kinds that are not vector elements included (lane 0 only).
func TestLaneAccessorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	for _, k := range allVecKinds {
		lanes := k.Lanes()
		if lanes == 0 {
			lanes = 1
		}
		for i := 0; i < 2000; i++ {
			var v Vec
			rng.Read(v[:])
			lane := rng.Intn(lanes)
			want := refLaneGet(k, v, lane)
			if got := LaneGet(k, v, lane); !scalarEq(got, want) {
				t.Fatalf("LaneGet(%s, %x, %d) = %+v, want %+v", k, v, lane, got, want)
			}
			s := Scalar{I: int64(rng.Uint64()), F: math.Float64frombits(rng.Uint64())}
			got, ref := v, v
			LaneSet(k, &got, lane, s)
			refLaneSet(k, &ref, lane, s)
			if got != ref {
				t.Fatalf("LaneSet(%s, %x, %d, %+v) = %x, want %x", k, v, lane, s, got, ref)
			}
		}
	}
}

func TestVecNoTrapRejectsOtherOpcodes(t *testing.T) {
	ones := vecOfLanes(cil.U8, 0xFF)
	for _, k := range allVecKinds {
		got := ones
		if VecBinaryNoTrap(&got, cil.Add, k, &ones, &ones); got != (Vec{}) {
			t.Errorf("VecBinaryNoTrap(add, %s) = %x, want the zero vector", k, got)
		}
		if got := VecReduceNoTrap(cil.VAdd, k, &ones); got != (Scalar{}) {
			t.Errorf("VecReduceNoTrap(vadd, %s) = %+v, want the zero scalar", k, got)
		}
	}
}

func TestVecLoadStore(t *testing.T) {
	mem := make([]byte, 40)
	for i := range mem {
		mem[i] = byte(i)
	}
	var v Vec
	v.Load(mem[3:])
	for i := range v {
		if v[i] != byte(3+i) {
			t.Fatalf("Load: byte %d = %d, want %d", i, v[i], 3+i)
		}
	}
	v.Store(mem[20:])
	for i := 0; i < len(mem); i++ {
		want := byte(i)
		if i >= 20 && i < 36 {
			want = byte(3 + i - 20)
		}
		if mem[i] != want {
			t.Fatalf("Store: mem[%d] = %d, want %d", i, mem[i], want)
		}
	}
}

var (
	benchVec    Vec
	benchScalar Scalar
)

// BenchmarkVecOps times each lane implementation on its own (kind × op), so
// a host-throughput run shows which lanes a change to vec.go moved.
func BenchmarkVecOps(b *testing.B) {
	for _, k := range vecKinds {
		var x, y Vec
		for lane := 0; lane < k.Lanes(); lane++ {
			LaneSet(k, &x, lane, Scalar{I: int64(3*lane + 7), F: 1.5 * float64(lane+1)})
			LaneSet(k, &y, lane, Scalar{I: int64(40 - 5*lane), F: 8.25 - float64(lane)})
		}
		for _, op := range vecBinOps {
			b.Run(fmt.Sprintf("%s/%s", k, op), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					VecBinaryNoTrap(&benchVec, op, k, &x, &y)
				}
			})
		}
		b.Run(fmt.Sprintf("%s/vsplat", k), func(b *testing.B) {
			s := LaneGet(k, x, 0)
			for i := 0; i < b.N; i++ {
				VecSplat(&benchVec, k, s)
			}
		})
		for _, op := range vecRedOps {
			b.Run(fmt.Sprintf("%s/%s", k, op), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchScalar = VecReduceNoTrap(op, k, &x)
				}
			})
		}
	}
}
