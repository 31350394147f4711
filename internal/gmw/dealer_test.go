package gmw

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// checkInvariant fails unless every lane of every word-triple satisfies
// (⊕A) ∧ (⊕B) = ⊕C across the parties.
func checkInvariant(t *testing.T, triples []WideTriples, count int) {
	t.Helper()
	for tt := 0; tt < count; tt++ {
		var a, b, c uint64
		for p := range triples {
			a ^= triples[p].A[tt]
			b ^= triples[p].B[tt]
			c ^= triples[p].C[tt]
		}
		if a&b != c {
			t.Fatalf("parties=%d word-triple %d: lanes %064b break a∧b = c", len(triples), tt, a&b^c)
		}
	}
}

// The sharded dealer satisfies the Beaver invariant in every lane.
func TestGenTriplesInvariant(t *testing.T) {
	for _, parties := range []int{2, 3, 7} {
		sharded, err := GenTriplesWideSharded(int64(parties), parties, 100, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(sharded) != parties {
			t.Fatalf("got %d party slices", len(sharded))
		}
		checkInvariant(t, sharded, 100)
	}
}

// The rng-driven dealer satisfies the Beaver invariant in every lane.
func TestGenTriplesWideInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, parties := range []int{2, 3, 7} {
		triples, err := GenTriplesWide(rng, parties, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(triples) != parties {
			t.Fatalf("got %d party slices", len(triples))
		}
		checkInvariant(t, triples, 100)
	}
}

func TestGenTriplesValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := GenTriplesWide(rng, 1, 5); err == nil {
		t.Error("parties=1 accepted")
	}
	if _, err := GenTriplesWide(rng, 3, -1); err == nil {
		t.Error("negative count accepted")
	}
}

// The sharded dealer must produce bit-identical triples at every worker
// count, and the triples must satisfy the Beaver invariant.
func TestGenTriplesShardedDeterministicAcrossWorkers(t *testing.T) {
	const parties, count = 3, 3*tripleShard + 117 // spans several shards plus a ragged tail
	base, err := GenTriplesWideSharded(99, parties, count, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, base, count)
	for _, workers := range []int{2, 8} {
		got, err := GenTriplesWideSharded(99, parties, count, workers)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < parties; p++ {
			for tt := 0; tt < count; tt++ {
				if got[p].A[tt] != base[p].A[tt] || got[p].B[tt] != base[p].B[tt] || got[p].C[tt] != base[p].C[tt] {
					t.Fatalf("workers=%d: party %d word-triple %d differs from workers=1", workers, p, tt)
				}
			}
		}
	}
}

// The sharded dealer's output is a function of its seed alone: the same
// seed reproduces it at any worker count, and another seed changes it.
func TestGenTriplesWideShardedDeterministic(t *testing.T) {
	const parties, count = 3, tripleShard + 7
	one, err := GenTriplesWideSharded(77, parties, count, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := GenTriplesWideSharded(77, parties, count, 8)
	if err != nil {
		t.Fatal(err)
	}
	other, err := GenTriplesWideSharded(78, parties, count, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for p := 0; p < parties; p++ {
		for tt := 0; tt < count; tt++ {
			if one[p].A[tt] != eight[p].A[tt] || one[p].B[tt] != eight[p].B[tt] || one[p].C[tt] != eight[p].C[tt] {
				t.Fatalf("party %d word-triple %d differs between 1 and 8 workers", p, tt)
			}
			if other[p].A[tt] != one[p].A[tt] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seeds 77 and 78 produced identical A shares")
	}
	checkInvariant(t, other, count)
}

func TestGenTriplesShardedValidation(t *testing.T) {
	if _, err := GenTriplesWideSharded(1, 1, 5, 2); err == nil {
		t.Error("parties=1 accepted")
	}
	if _, err := GenTriplesWideSharded(1, 3, -1, 2); err == nil {
		t.Error("negative count accepted")
	}
}

// laneRates returns, per lane, the fraction of words with that lane's bit
// set.
func laneRates(words []uint64) [WideLanes]float64 {
	var ones [WideLanes]int
	for _, w := range words {
		for w != 0 {
			ones[bits.TrailingZeros64(w)]++
			w &= w - 1
		}
	}
	var rates [WideLanes]float64
	for k, n := range ones {
		rates[k] = float64(n) / float64(len(words))
	}
	return rates
}

// Dealer-output statistics: any single party's triple shares must be
// marginally uniform in every lane (else the dealer itself would leak the
// triple values to individual parties).
func TestTripleSharesMarginallyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const count = 20000
	triples, err := GenTriplesWide(rng, 3, count)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		for name, stream := range map[string][]uint64{
			"A": triples[p].A, "B": triples[p].B, "C": triples[p].C,
		} {
			for k, rate := range laneRates(stream) {
				if math.Abs(rate-0.5) > 0.02 {
					t.Errorf("party %d stream %s lane %d: ones rate %v, want ≈ 0.5", p, name, k, rate)
				}
			}
		}
	}
}

// The reconstructed a and b streams themselves must be unbiased coins in
// every lane, and c must equal a∧b exactly (already covered) with
// P(c=1) ≈ 0.25.
func TestTripleJointDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const count = 20000
	triples, err := GenTriplesWide(rng, 4, count)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]uint64, count)
	b := make([]uint64, count)
	c := make([]uint64, count)
	for i := 0; i < count; i++ {
		for p := 0; p < 4; p++ {
			a[i] ^= triples[p].A[i]
			b[i] ^= triples[p].B[i]
			c[i] ^= triples[p].C[i]
		}
	}
	aRates, bRates, cRates := laneRates(a), laneRates(b), laneRates(c)
	for k := 0; k < WideLanes; k++ {
		if r := aRates[k]; math.Abs(r-0.5) > 0.02 {
			t.Errorf("lane %d: a rate %v", k, r)
		}
		if r := bRates[k]; math.Abs(r-0.5) > 0.02 {
			t.Errorf("lane %d: b rate %v", k, r)
		}
		if r := cRates[k]; math.Abs(r-0.25) > 0.02 {
			t.Errorf("lane %d: c rate %v, want ≈ 0.25", k, r)
		}
	}
}

// A single party's view of (A, B, C) must not predict the real (a, b):
// in every lane, a party's share agrees with the reconstructed secret
// about half the time.
func TestShareUncorrelatedWithSecret(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const count = 20000
	triples, err := GenTriplesWide(rng, 3, count)
	if err != nil {
		t.Fatal(err)
	}
	agree := make([]uint64, count) // lane k set where party 0's A share equals a
	for i := 0; i < count; i++ {
		var a uint64
		for p := 0; p < 3; p++ {
			a ^= triples[p].A[i]
		}
		agree[i] = ^(triples[0].A[i] ^ a)
	}
	for k, rate := range laneRates(agree) {
		if math.Abs(rate-0.5) > 0.02 {
			t.Fatalf("lane %d: party 0's A share agrees with secret at rate %v, want ≈ 0.5", k, rate)
		}
	}
}
