package rngx

import "math/rand"

// This file reimplements math/rand's additive lagged Fibonacci source
// (Mitchell & Reeds, x[n] = x[n-273] + x[n-607]) bit for bit, so Source can
// keep the exact streams the pinned golden checksums were captured against
// while fixing the generator's one hot spot: Seed. Expanding a seed walks a
// 1841-step LCG chain to fill the 607-word feedback register, which is
// ~20x the cost of the handful of draws a short-lived stream ever makes —
// interference.Noise re-arms one stream per storage target every replica.
// Seeding is therefore lazy: Seed only records the key, and the draws
// expand register words chunk by chunk just before the recurrence first
// reads them, so a stream pays for the words it draws and no more. After
// draw 334 the register is complete and seeding costs nothing further.

const (
	alfgLen      = 607
	alfgTap      = 273
	alfgMask     = 1<<63 - 1
	alfgInt32Max = 1<<31 - 1
	// alfgChunk is how many draws' worth of register words grow expands
	// at once. Most reseeded streams (one per storage target) draw two or
	// three values per replica, so a small chunk keeps the expanded words
	// close to the ones read, at the price of ~167 grow calls for a stream
	// that completes its register.
	alfgChunk = 2
)

// alfgSource implements rand.Source64 with math/rand's exact semantics.
type alfgSource struct {
	tap  int
	feed int
	due  int    // feed value at which grow must expand the next chunk
	key  uint64 // reduced seed the unexpanded words derive from
	vec  [alfgLen]int64
}

func newAlfg(seed int64) *alfgSource {
	s := &alfgSource{}
	s.Seed(seed)
	return s
}

// alfgSeedrand advances the seeding LCG: x[n+1] = 48271*x[n] mod (2^31-1).
// math/rand uses Schrage's decomposition (two divisions) to avoid 32-bit
// overflow; with 64-bit arithmetic the product fits directly and the modulus
// is the Mersenne prime 2^31-1, so a fold (2^31 ≡ 1 mod M) plus one
// conditional subtraction yields the identical residue division-free.
func alfgSeedrand(x int32) int32 {
	y := uint64(x) * 48271
	y = (y & alfgInt32Max) + (y >> 31)
	if y >= alfgInt32Max {
		y -= alfgInt32Max
	}
	return int32(y)
}

// alfgKey reduces a seed the way rngSource.Seed does; seeds equal mod
// 2^31-1 produce identical registers.
func alfgKey(seed int64) int32 {
	seed = seed % alfgInt32Max
	if seed < 0 {
		seed += alfgInt32Max
	}
	if seed == 0 {
		seed = 89482311
	}
	return int32(seed)
}

// alfgModmul is x*y mod (2^31-1) for x, y < 2^31: the product fits in 62
// bits, so two Mersenne folds and a conditional subtraction reduce it
// exactly.
func alfgModmul(x, y uint64) uint64 {
	p := x * y
	p = (p & alfgInt32Max) + (p >> 31)
	p = (p & alfgInt32Max) + (p >> 31)
	if p >= alfgInt32Max {
		p -= alfgInt32Max
	}
	return p
}

// alfgJump[i] = 48271^(21+3i) mod (2^31-1): the LCG state entering word i of
// the expansion. The seeding LCG is multiplicative, so its n-th state has
// the closed form a^n*key mod M; precomputing the power for each word turns
// the 1841-step serial dependency chain of math/rand's expansion into 607
// independent per-word computations, so grow can expand any word on its own.
var alfgJump [alfgLen]uint64

func init() {
	const a = 48271
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = alfgModmul(x, a)
	}
	step := alfgModmul(alfgModmul(a, a), a)
	for i := 0; i < alfgLen; i++ {
		alfgJump[i] = x
		x = alfgModmul(x, step)
	}
}

// Seed puts the source in the state math/rand's rngSource.Seed produces
// without touching the register: it records the reduced key and rewinds the
// taps, and the draws expand each original word just before its first read.
func (s *alfgSource) Seed(seed int64) {
	s.key = uint64(alfgKey(seed))
	s.tap = 0
	s.feed = alfgLen - alfgTap
	s.due = s.feed
}

// grow expands the original words the next alfgChunk draws read. Draw k
// (1-based) reads word 334-k and, while k <= 273, word 607-k; every other
// read hits a word the recurrence wrote or grow already filled. feed counts
// down from 334 one per draw, so it says how many draws came before.
func (s *alfgSource) grow() {
	const head = alfgLen - alfgTap // 334: draws until every word is read
	a := head - s.feed
	b := min(a+alfgChunk, head)
	s.fill(head-b, head-a)
	if a < alfgTap {
		s.fill(alfgLen-min(b, alfgTap), alfgLen-a)
	}
	s.due = head - b
	if b == head {
		s.due = -1 // register complete: feed is never negative, so never due
	}
}

// fill expands words [lo, hi) from the key: three LCG draws per word, XORed
// with the cooked constants — bit-identical to math/rand's chained walk,
// jump-started per word via alfgJump.
func (s *alfgSource) fill(lo, hi int) {
	k := s.key
	for i := lo; i < hi; i++ {
		x1 := int32(alfgModmul(alfgJump[i], k))
		x2 := alfgSeedrand(x1)
		x3 := alfgSeedrand(x2)
		u := int64(x1) << 40
		u ^= int64(x2) << 20
		u ^= int64(x3)
		u ^= alfgCooked[i]
		s.vec[i] = u
	}
}

// Uint64 returns the next raw register sum (math/rand's core step).
func (s *alfgSource) Uint64() uint64 {
	if s.feed == s.due {
		s.grow()
	}
	return uint64(s.step())
}

// Int63 implements rand.Source. It repeats Uint64's check instead of
// calling it, because the call to grow keeps Uint64 from being inlined and
// rand.Rand draws everything through Int63.
func (s *alfgSource) Int63() int64 {
	if s.feed == s.due {
		s.grow()
	}
	return s.step() & alfgMask
}

// step advances the recurrence over an already expanded register.
func (s *alfgSource) step() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += alfgLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += alfgLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

var _ rand.Source64 = (*alfgSource)(nil)
