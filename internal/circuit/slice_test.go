package circuit

import (
	"math/rand"
	"testing"
)

// TestCountBelowSliceMatchesDirect checks the folded-offset comparator:
// with W = BitsNeeded(m+1)+1 and the offset 2^W − t added into party 0's
// share, the output bit must equal freq ≥ t for every freq ≤ m, t ≤ 2^(W−1)−1.
func TestCountBelowSliceMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, style := range []Style{StyleRipple, StylePrefix} {
		const m = 37
		shareBits := BitsNeeded(uint64(m + 1))
		w := shareBits + 1
		p := SliceParams{Parties: 3, ShareBits: w, Arithmetic: style}
		c, err := CountBelowSlice(p)
		if err != nil {
			t.Fatal(err)
		}
		mod := uint64(1) << uint(w)
		for trial := 0; trial < 300; trial++ {
			freq := uint64(rng.Intn(m + 1))
			thr := uint64(rng.Intn(1<<uint(shareBits)-1) + 1)
			shares := make([]uint64, p.Parties)
			var sum uint64
			for k := 0; k < p.Parties-1; k++ {
				shares[k] = rng.Uint64() % mod
				sum = (sum + shares[k]) % mod
			}
			shares[p.Parties-1] = (freq + mod - sum) % mod
			shares[0] = (shares[0] + mod - thr) % mod // fold the offset
			var in []bool
			for k := 0; k < p.Parties; k++ {
				in = append(in, toBits(shares[k], w)...)
			}
			out, err := c.Evaluate(in)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 1 {
				t.Fatalf("CountBelowSlice has %d outputs, want 1", len(out))
			}
			if want := freq >= thr; out[0] != want {
				t.Fatalf("style %v freq=%d thr=%d: ge=%v, want %v", style, freq, thr, out[0], want)
			}
		}
	}
}

func TestSliceCountMatchesPopcount(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := SliceCountParams{Parties: 3, Slots: 64}
	c, err := SliceCount(p)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		lanes := make([]bool, p.Slots)
		want := uint64(0)
		for s := range lanes {
			lanes[s] = rng.Intn(2) == 1
			if lanes[s] {
				want++
			}
		}
		// XOR-share each lane bit across the parties.
		shares := make([][]bool, p.Parties)
		for k := range shares {
			shares[k] = make([]bool, p.Slots)
		}
		for s, v := range lanes {
			acc := false
			for k := 0; k < p.Parties-1; k++ {
				shares[k][s] = rng.Intn(2) == 1
				acc = acc != shares[k][s]
			}
			shares[p.Parties-1][s] = acc != v
		}
		var in []bool
		for k := range shares {
			in = append(in, shares[k]...)
		}
		out, err := c.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := fromBits(out); got != want {
			t.Fatalf("trial %d: count=%d, want %d", trial, got, want)
		}
	}
}

// TestRevealSliceMatchesDirect checks Equation 6 semantics lane-wise:
// hidden = (freq ≥ t) ∨ (coin < mixThreshold), masked = freq·¬hidden,
// with the offset entering as party 0's trailing private input.
func TestRevealSliceMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m = 21
	shareBits := BitsNeeded(uint64(m + 1))
	w := shareBits + 1
	for _, mixThr := range []uint64{0, 3, 14} {
		p := SliceParams{Parties: 3, ShareBits: w, CoinBits: 4, MixThreshold: mixThr}
		c, err := RevealSlice(p)
		if err != nil {
			t.Fatal(err)
		}
		mod := uint64(1) << uint(w)
		coinMod := uint64(1) << uint(p.CoinBits)
		for trial := 0; trial < 200; trial++ {
			freq := uint64(rng.Intn(m + 1))
			thr := uint64(rng.Intn(1<<uint(shareBits)-1) + 1)
			shares := make([]uint64, p.Parties)
			coins := make([]uint64, p.Parties)
			var sum, coin uint64
			for k := 0; k < p.Parties; k++ {
				coins[k] = rng.Uint64() % coinMod
				coin ^= coins[k]
				if k < p.Parties-1 {
					shares[k] = rng.Uint64() % mod
					sum = (sum + shares[k]) % mod
				}
			}
			shares[p.Parties-1] = (freq + mod - sum) % mod
			var in []bool
			for k := 0; k < p.Parties; k++ {
				in = append(in, toBits(shares[k], w)...)
				in = append(in, toBits(coins[k], p.CoinBits)...)
			}
			in = append(in, toBits(mod-thr, w)...) // party 0 offset input
			out, err := c.Evaluate(in)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 1+w {
				t.Fatalf("RevealSlice has %d outputs, want %d", len(out), 1+w)
			}
			wantHidden := freq >= thr || coin < mixThr
			if out[0] != wantHidden {
				t.Fatalf("mix=%d freq=%d thr=%d coin=%d: hidden=%v, want %v",
					mixThr, freq, thr, coin, out[0], wantHidden)
			}
			wantMasked := freq
			if wantHidden {
				wantMasked = 0
			}
			if got := fromBits(out[1:]); got != wantMasked {
				t.Fatalf("mix=%d freq=%d thr=%d: masked=%d, want %d", mixThr, freq, thr, got, wantMasked)
			}
		}
	}
}

func TestSliceParamValidation(t *testing.T) {
	if _, err := CountBelowSlice(SliceParams{Parties: 1, ShareBits: 4}); err == nil {
		t.Fatal("CountBelowSlice accepted 1 party")
	}
	if _, err := RevealSlice(SliceParams{Parties: 2, ShareBits: 4, CoinBits: 3, MixThreshold: 8}); err == nil {
		t.Fatal("RevealSlice accepted mix threshold == 2^CoinBits")
	}
	if _, err := SliceCount(SliceCountParams{Parties: 2, Slots: 0}); err == nil {
		t.Fatal("SliceCount accepted 0 slots")
	}
}
