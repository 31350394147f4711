package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSub(t *testing.T) {
	const width = 6
	b := NewBuilder()
	x := b.InputVec(0, width)
	y := b.InputVec(1, width)
	diff, err := b.Sub(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range diff {
		if err := b.Output(w); err != nil {
			t.Fatal(err)
		}
	}
	c := mustBuild(t, b)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := rng.Uint64() % 64
		bb := rng.Uint64() % 64
		in := append(toBits(a, width), toBits(bb, width)...)
		got := fromBits(evalOne(t, c, in))
		want := (a - bb) & 63
		if got != want {
			t.Fatalf("%d - %d = %d, want %d", a, bb, got, want)
		}
	}
	if _, err := b.Sub(b.InputVec(0, 2), b.InputVec(0, 3)); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

func TestMulConst(t *testing.T) {
	const width = 12
	for _, k := range []uint64{0, 1, 2, 3, 7, 10, 255} {
		b := NewBuilder()
		x := b.InputVec(0, 6)
		prod, err := b.MulConst(x, k, width)
		if err != nil {
			t.Fatal(err)
		}
		anchor := x[0]
		for _, w := range prod {
			if err := b.Output(b.Materialize(w, anchor)); err != nil {
				t.Fatal(err)
			}
		}
		c := mustBuild(t, b)
		for _, v := range []uint64{0, 1, 5, 33, 63} {
			got := fromBits(evalOne(t, c, toBits(v, 6)))
			want := (v * k) % (1 << width)
			if got != want {
				t.Fatalf("%d * %d = %d, want %d", v, k, got, want)
			}
		}
	}
	b := NewBuilder()
	if _, err := b.MulConst(b.InputVec(0, 4), 3, 0); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestDiv(t *testing.T) {
	const width = 7
	b := NewBuilder()
	x := b.InputVec(0, width)
	y := b.InputVec(1, width)
	q, err := b.Div(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range q {
		if err := b.Output(w); err != nil {
			t.Fatal(err)
		}
	}
	c := mustBuild(t, b)
	prop := func(a, bb uint8) bool {
		va := uint64(a) % 128
		vb := uint64(bb) % 128
		in := append(toBits(va, width), toBits(vb, width)...)
		out, err := c.Evaluate(in)
		if err != nil {
			return false
		}
		got := fromBits(out)
		if vb == 0 {
			return got == 127 // saturation
		}
		return got == va/vb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if _, err := b.Div(b.InputVec(0, 2), b.InputVec(0, 3)); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

func TestMaterialize(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	mz := b.Materialize(Zero, x)
	mo := b.Materialize(One, x)
	if mz.IsConst() || mo.IsConst() {
		t.Fatal("Materialize returned constants")
	}
	if got := b.Materialize(x, x); got != x {
		t.Fatal("live wire not passed through")
	}
	for _, w := range []Wire{mz, mo} {
		if err := b.Output(w); err != nil {
			t.Fatal(err)
		}
	}
	c := mustBuild(t, b)
	for _, v := range []bool{false, true} {
		out := evalOne(t, c, []bool{v})
		if out[0] != false || out[1] != true {
			t.Fatalf("materialized constants evaluate to %v", out)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("const anchor accepted")
		}
	}()
	b.Materialize(Zero, One)
}

func TestEpsToFixed(t *testing.T) {
	if got := EpsToFixed(0.5, 8); got != 256 { // (2-1)*256
		t.Fatalf("ε=0.5: %d, want 256", got)
	}
	if got := EpsToFixed(1, 8); got != 0 {
		t.Fatalf("ε=1: %d, want 0", got)
	}
	if got := EpsToFixed(0, 8); got != 0 {
		t.Fatalf("ε=0: %d, want 0 (degenerate)", got)
	}
	if got := EpsToFixed(0.2, 8); got != 1024 { // 4*256
		t.Fatalf("ε=0.2: %d, want 1024", got)
	}
}

func TestPureBetaMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const frac = 6
	p := PureBetaParams{
		Providers:    8,
		Identities:   3,
		EpsFixed:     []uint64{EpsToFixed(0.5, frac), EpsToFixed(0.8, frac), 0},
		FracBits:     frac,
		CoinBits:     5,
		MixThreshold: 0, // isolate the β computation
	}
	c, err := PureBeta(p)
	if err != nil {
		t.Fatal(err)
	}
	k := BitsNeeded(uint64(p.Providers))
	w := k + 2*frac
	one := uint64(1) << frac
	for trial := 0; trial < 20; trial++ {
		bits := make([][]bool, p.Providers)
		freqs := make([]uint64, p.Identities)
		for i := range bits {
			bits[i] = make([]bool, p.Identities)
			for j := range bits[i] {
				bits[i][j] = rng.Intn(2) == 1
				if bits[i][j] {
					freqs[j]++
				}
			}
		}
		var in []bool
		for i := 0; i < p.Providers; i++ {
			for j := 0; j < p.Identities; j++ {
				in = append(in, bits[i][j])
				in = append(in, toBits(0, p.CoinBits)...)
			}
		}
		out, err := c.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		per := 1 + w
		for j := 0; j < p.Identities; j++ {
			hidden := out[j*per]
			beta := fromBits(out[j*per+1 : (j+1)*per])
			if p.EpsFixed[j] == 0 {
				if !hidden || beta != 0 {
					t.Fatalf("ε=1 identity: hidden=%v β=%d", hidden, beta)
				}
				continue
			}
			// Expected fixed-point β* via the same integer formula.
			denom := (uint64(p.Providers) - freqs[j]) * p.EpsFixed[j]
			var want uint64
			if denom == 0 {
				want = (uint64(1) << uint(w)) - 1 // saturated division
			} else {
				want = (freqs[j] << uint(2*frac)) / denom
			}
			wantHidden := want >= one
			if hidden != wantHidden {
				t.Fatalf("identity %d freq %d: hidden=%v, want %v (β*=%d)", j, freqs[j], hidden, wantHidden, want)
			}
			wantBeta := want
			if wantHidden {
				wantBeta = 0
			}
			if beta != wantBeta {
				t.Fatalf("identity %d freq %d: β=%d, want %d", j, freqs[j], beta, wantBeta)
			}
		}
	}
}

func TestPureBetaMixing(t *testing.T) {
	const frac = 4
	p := PureBetaParams{
		Providers:    4,
		Identities:   1,
		EpsFixed:     []uint64{EpsToFixed(0.5, frac)},
		FracBits:     frac,
		CoinBits:     4,
		MixThreshold: 15, // mix whenever joint coin < 15 (almost always)
	}
	c, err := PureBeta(p)
	if err != nil {
		t.Fatal(err)
	}
	k := BitsNeeded(4)
	w := k + 2*frac
	// freq=1 (rare), joint coin = 3 < 15 → mixed → hidden, β masked.
	var in []bool
	for i := 0; i < 4; i++ {
		in = append(in, i == 0)
		coin := uint64(0)
		if i == 0 {
			coin = 3
		}
		in = append(in, toBits(coin, 4)...)
	}
	out, err := c.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0] {
		t.Fatal("mixed identity not hidden")
	}
	if fromBits(out[1:1+w]) != 0 {
		t.Fatal("hidden identity leaked β")
	}
}

func TestPureBetaValidation(t *testing.T) {
	base := PureBetaParams{Providers: 4, Identities: 1, EpsFixed: []uint64{64}, FracBits: 6, CoinBits: 4, MixThreshold: 3}
	bad := []func(*PureBetaParams){
		func(p *PureBetaParams) { p.Providers = 1 },
		func(p *PureBetaParams) { p.Identities = 0 },
		func(p *PureBetaParams) { p.EpsFixed = nil },
		func(p *PureBetaParams) { p.FracBits = 0 },
		func(p *PureBetaParams) { p.CoinBits = 0 },
		func(p *PureBetaParams) { p.MixThreshold = 16 },
		func(p *PureBetaParams) { p.EpsFixed = []uint64{1 << 40} },
	}
	for i, mutate := range bad {
		p := base
		mutate(&p)
		if _, err := PureBeta(p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

// The pure-β circuit must dwarf the reduced pipeline per identity — the
// quantitative heart of the paper's "minimize MPC" claim.
func TestPureBetaCostDominatesReduced(t *testing.T) {
	m := 16
	pure, err := PureBeta(PureBetaParams{
		Providers: m, Identities: 1,
		EpsFixed: []uint64{EpsToFixed(0.5, 8)}, FracBits: 8, CoinBits: 16, MixThreshold: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	shareBits := BitsNeeded(uint64(m + 1))
	cb, err := CountBelow(CountBelowParams{Parties: 3, Identities: 1, ShareBits: shareBits, Thresholds: []uint64{8}})
	if err != nil {
		t.Fatal(err)
	}
	rv, err := Reveal(RevealParams{Parties: 3, Identities: 1, ShareBits: shareBits, Thresholds: []uint64{8}, CoinBits: 16, MixThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	reduced := cb.Stats().AndGates + rv.Stats().AndGates
	if pure.Stats().AndGates < 5*reduced {
		t.Fatalf("pure AND gates %d not ≫ reduced %d", pure.Stats().AndGates, reduced)
	}
}
