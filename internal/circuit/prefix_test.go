package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStyleString(t *testing.T) {
	if StyleRipple.String() != "ripple" || StylePrefix.String() != "prefix" || Style(7).String() != "style(7)" {
		t.Fatal("style names wrong")
	}
}

// Prefix adder must agree with native addition across widths.
func TestPrefixAdderCorrect(t *testing.T) {
	for _, width := range []int{1, 2, 3, 7, 8, 16, 31} {
		b := NewBuilder()
		b.SetStyle(StylePrefix)
		x := b.InputVec(0, width)
		y := b.InputVec(1, width)
		sum, err := b.Add(x, y)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range sum {
			if err := b.Output(b.Materialize(w, x[0])); err != nil {
				t.Fatal(err)
			}
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(width)))
		mod := uint64(1) << uint(width)
		for trial := 0; trial < 100; trial++ {
			a := rng.Uint64() % mod
			bb := rng.Uint64() % mod
			in := append(toBits(a, width), toBits(bb, width)...)
			out, err := c.Evaluate(in)
			if err != nil {
				t.Fatal(err)
			}
			if got := fromBits(out); got != (a+bb)%mod {
				t.Fatalf("width %d: %d + %d = %d, want %d", width, a, bb, got, (a+bb)%mod)
			}
		}
	}
}

// Prefix comparator must agree with native comparison.
func TestPrefixComparatorCorrect(t *testing.T) {
	const width = 9
	b := NewBuilder()
	b.SetStyle(StylePrefix)
	x := b.InputVec(0, width)
	y := b.InputVec(1, width)
	lt, err := b.LessThan(x, y)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := b.GreaterEq(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Output(lt); err != nil {
		t.Fatal(err)
	}
	if err := b.Output(ge); err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, bb uint16) bool {
		va := uint64(a) % 512
		vb := uint64(bb) % 512
		in := append(toBits(va, width), toBits(vb, width)...)
		out, err := c.Evaluate(in)
		if err != nil {
			return false
		}
		return out[0] == (va < vb) && out[1] == (va >= vb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// The entire point: prefix arithmetic must cut AND depth to O(log w) while
// the ripple version is O(w).
func TestPrefixDepthAdvantage(t *testing.T) {
	const width = 32
	build := func(style Style) Stats {
		b := NewBuilder()
		b.SetStyle(style)
		x := b.InputVec(0, width)
		y := b.InputVec(1, width)
		sum, err := b.Add(x, y)
		if err != nil {
			t.Fatal(err)
		}
		lt, err := b.LessThan(sum, ConstVec(12345, width))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Output(lt); err != nil {
			t.Fatal(err)
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c.Stats()
	}
	ripple := build(StyleRipple)
	prefix := build(StylePrefix)
	if prefix.AndDepth*3 >= ripple.AndDepth {
		t.Fatalf("prefix depth %d not ≪ ripple depth %d", prefix.AndDepth, ripple.AndDepth)
	}
	if prefix.AndGates <= ripple.AndGates {
		t.Fatalf("prefix should spend more AND gates (%d vs %d) — nothing is free", prefix.AndGates, ripple.AndGates)
	}
}

// Prefix-style CountBelow / Reveal must produce the same results as ripple.
func TestPrefixCompilersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// 16-bit shares: wide enough for the log-depth advantage to dominate
	// (at 8 bits the two styles' depths nearly tie).
	base := CountBelowParams{
		Parties:    3,
		Identities: 4,
		ShareBits:  16,
		Thresholds: []uint64{5, 100, 30, 1},
	}
	ripple, err := CountBelow(base)
	if err != nil {
		t.Fatal(err)
	}
	pfx := base
	pfx.Arithmetic = StylePrefix
	prefix, err := CountBelow(pfx)
	if err != nil {
		t.Fatal(err)
	}
	if prefix.Stats().AndDepth >= ripple.Stats().AndDepth {
		t.Fatalf("prefix CountBelow depth %d >= ripple %d", prefix.Stats().AndDepth, ripple.Stats().AndDepth)
	}
	mod := uint64(1) << 16
	for trial := 0; trial < 20; trial++ {
		var in []bool
		for k := 0; k < base.Parties; k++ {
			for j := 0; j < base.Identities; j++ {
				in = append(in, toBits(rng.Uint64()%mod, base.ShareBits)...)
			}
		}
		a, err := ripple.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := prefix.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		if fromBits(a) != fromBits(b) {
			t.Fatalf("trial %d: ripple %d != prefix %d", trial, fromBits(a), fromBits(b))
		}
	}
}

// GMW evaluation of a prefix circuit (smoke: the schedule machinery must
// handle the wider, shallower layout).
func TestPrefixStatsSane(t *testing.T) {
	rv, err := Reveal(RevealParams{
		Parties: 3, Identities: 2, ShareBits: 10,
		Thresholds: []uint64{7, 9}, CoinBits: 8, MixThreshold: 3,
		Arithmetic: StylePrefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rv.Stats()
	if st.AndDepth > 20 {
		t.Fatalf("prefix Reveal depth %d suspiciously deep", st.AndDepth)
	}
	if st.Gates != st.AndGates+st.FreeGates {
		t.Fatal("stats inconsistent")
	}
}
