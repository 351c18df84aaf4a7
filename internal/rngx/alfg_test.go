package rngx

import (
	"math/rand"
	"strconv"
	"testing"
)

// alfgSeeds exercises the reduction edge cases: zero (remapped), the
// modulus and its neighbours, negatives, and ordinary experiment seeds.
var alfgSeeds = []int64{
	0, 1, -1, 2010, 89482311,
	alfgInt32Max - 1, alfgInt32Max, alfgInt32Max + 1,
	-alfgInt32Max, 1 << 40, -(1 << 40), 7907, 123456789,
}

// TestAlfgMatchesMathRand pins the reimplementation to math/rand draw for
// draw. 2000 draws is more than three times the register length, so the
// feedback indices wrap and the post-seed recurrence is fully exercised.
func TestAlfgMatchesMathRand(t *testing.T) {
	for _, seed := range alfgSeeds {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(newAlfg(seed))
		for i := 0; i < 2000; i++ {
			if r, g := ref.Uint64(), got.Uint64(); r != g {
				t.Fatalf("seed %d draw %d: alfg %#x != math/rand %#x", seed, i, g, r)
			}
		}
	}
}

// alfgBoundaries are draw counts at the edges of lazy expansion: chunk
// boundaries, the last draw that reads an original tap word (273), the last
// that reads an original feed word (334), and one register length (607).
var alfgBoundaries = []int{0, 1, alfgChunk - 1, alfgChunk, alfgChunk + 1,
	272, 273, 274, 333, 334, 335, 606, 607, 608}

// alfgCheckReseed dirties a source with pre draws, reseeds it, and compares
// n draws with math/rand, mixing Uint64 and Int63 so that chunk boundaries
// fall on both (each carries its own expansion check): a reseed after a
// partial lazy expansion must never read a word left over from the
// previous seed.
func alfgCheckReseed(t *testing.T, seed int64, pre, n int) {
	t.Helper()
	s := newAlfg(seed ^ 0x5eed)
	for i := 0; i < pre; i++ {
		s.Uint64()
	}
	s.Seed(seed)
	ref := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		var r, g uint64
		if i%3 != 1 {
			r, g = ref.Uint64(), s.Uint64()
		} else {
			r, g = uint64(ref.Int63()), uint64(s.Int63())
		}
		if r != g {
			t.Fatalf("seed %d after %d draws, draw %d: alfg %#x != math/rand %#x", seed, pre, i, g, r)
		}
	}
}

// TestAlfgLazyMatchesMathRand reseeds sources dirtied to every expansion
// boundary and checks 2000 draws against math/rand.
func TestAlfgLazyMatchesMathRand(t *testing.T) {
	for _, seed := range alfgSeeds {
		for _, pre := range alfgBoundaries {
			alfgCheckReseed(t, seed, pre, 2000)
		}
	}
}

// FuzzAlfgMatchesMathRand is TestAlfgLazyMatchesMathRand over arbitrary
// seeds and draw counts.
func FuzzAlfgMatchesMathRand(f *testing.F) {
	for _, seed := range alfgSeeds {
		for _, pre := range alfgBoundaries {
			f.Add(seed, uint16(pre), uint16(700))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, pre, n uint16) {
		alfgCheckReseed(t, seed, int(pre), int(n))
	})
}

// TestAlfgDistributionsMatch guards the rand.Rand layering: Float64 and the
// rejection-sampling distributions consume source words in patterns that
// would expose any off-by-one in Uint64 state handling.
func TestAlfgDistributionsMatch(t *testing.T) {
	ref := rand.New(rand.NewSource(2010))
	got := rand.New(newAlfg(2010))
	for i := 0; i < 500; i++ {
		if r, g := ref.Float64(), got.Float64(); r != g {
			t.Fatalf("Float64 draw %d: %v != %v", i, g, r)
		}
		if r, g := ref.ExpFloat64(), got.ExpFloat64(); r != g {
			t.Fatalf("ExpFloat64 draw %d: %v != %v", i, g, r)
		}
		if r, g := ref.NormFloat64(), got.NormFloat64(); r != g {
			t.Fatalf("NormFloat64 draw %d: %v != %v", i, g, r)
		}
		if r, g := ref.Intn(997), got.Intn(997); r != g {
			t.Fatalf("Intn draw %d: %v != %v", i, g, r)
		}
	}
}

// alfgDraws are stream lengths for the seed-then-draw benchmarks: a
// per-target noise stream (a handful of draws), a stream stopping partway
// through expansion (the noise master draws one seed per target), and a
// long-lived service-time stream whose register ends up complete.
var alfgDraws = []int{4, 64, 2000}

// BenchmarkAlfgSeedThenDraw reseeds a stream to a fresh key and makes n
// draws through rand.Rand, as a reused world does per stream per replica.
func BenchmarkAlfgSeedThenDraw(b *testing.B) {
	alfgBenchSeedThenDraw(b, rand.New(newAlfg(1)))
}

// BenchmarkMathRandSeedThenDraw is BenchmarkAlfgSeedThenDraw's stdlib
// baseline, which expands the whole register on every Seed.
func BenchmarkMathRandSeedThenDraw(b *testing.B) {
	alfgBenchSeedThenDraw(b, rand.New(rand.NewSource(1)))
}

func alfgBenchSeedThenDraw(b *testing.B, r *rand.Rand) {
	for _, n := range alfgDraws {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i + 1))
				for j := 0; j < n; j++ {
					r.Int63()
				}
			}
		})
	}
}
