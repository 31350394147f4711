package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRejectsComposite(t *testing.T) {
	tests := []struct {
		name    string
		q       uint64
		wantErr bool
	}{
		{name: "zero", q: 0, wantErr: true},
		{name: "one", q: 1, wantErr: true},
		{name: "two", q: 2, wantErr: false},
		{name: "small prime", q: 5, wantErr: false},
		{name: "small composite", q: 9, wantErr: true},
		{name: "even composite", q: 1 << 20, wantErr: true},
		{name: "mersenne 61", q: (1 << 61) - 1, wantErr: false},
		{name: "carmichael 561", q: 561, wantErr: true},
		{name: "carmichael 41041", q: 41041, wantErr: true},
		{name: "large prime", q: 18446744073709551557, wantErr: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.q)
			if gotErr := err != nil; gotErr != tt.wantErr {
				t.Fatalf("New(%d) error = %v, wantErr %v", tt.q, err, tt.wantErr)
			}
		})
	}
}

func TestMustNewPanicsOnComposite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(10) did not panic")
		}
	}()
	MustNew(10)
}

func TestAddSubNeg(t *testing.T) {
	f := MustNew(97)
	tests := []struct {
		a, b, sum, diff uint64
	}{
		{0, 0, 0, 0},
		{1, 96, 0, 2},
		{50, 50, 3, 0},
		{96, 96, 95, 0},
		{3, 5, 8, 95},
	}
	for _, tt := range tests {
		if got := f.Add(tt.a, tt.b); got != tt.sum {
			t.Errorf("Add(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.sum)
		}
		if got := f.Sub(tt.a, tt.b); got != tt.diff {
			t.Errorf("Sub(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.diff)
		}
	}
	for a := uint64(0); a < 97; a++ {
		if got := f.Add(a, f.Neg(a)); got != 0 {
			t.Fatalf("a + (-a) = %d for a=%d, want 0", got, a)
		}
	}
}

func TestAddNoOverflowNearMax(t *testing.T) {
	// Largest 64-bit prime: additions of canonical elements must not wrap.
	f := MustNew(18446744073709551557)
	a, b := f.Modulus()-1, f.Modulus()-2
	want := f.Modulus() - 3 // (q-1)+(q-2) = 2q-3 ≡ q-3
	if got := f.Add(a, b); got != want {
		t.Fatalf("Add near max = %d, want %d", got, want)
	}
	if got := f.Sub(0, 1); got != f.Modulus()-1 {
		t.Fatalf("Sub(0,1) = %d, want %d", got, f.Modulus()-1)
	}
}

func TestMulMatchesNaive(t *testing.T) {
	f := MustNew(101)
	for a := uint64(0); a < 101; a += 7 {
		for b := uint64(0); b < 101; b += 5 {
			want := (a * b) % 101
			if got := f.Mul(a, b); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulLargeOperands(t *testing.T) {
	f := Default()
	q := f.Modulus()
	// (q-1)^2 mod q == 1 because q-1 ≡ -1.
	if got := f.Mul(q-1, q-1); got != 1 {
		t.Fatalf("Mul(q-1,q-1) = %d, want 1", got)
	}
}

func TestPowInv(t *testing.T) {
	f := MustNew(101)
	if got := f.Pow(2, 10); got != 1024%101 {
		t.Fatalf("Pow(2,10) = %d, want %d", got, 1024%101)
	}
	if got := f.Pow(7, 0); got != 1 {
		t.Fatalf("Pow(7,0) = %d, want 1", got)
	}
	for a := uint64(1); a < 101; a++ {
		inv, err := f.Inv(a)
		if err != nil {
			t.Fatalf("Inv(%d): %v", a, err)
		}
		if got := f.Mul(a, inv); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d, want 1", got, a)
		}
	}
	if _, err := f.Inv(0); err == nil {
		t.Fatal("Inv(0) succeeded, want error")
	}
}

func TestRandUniformCoverage(t *testing.T) {
	f := MustNew(31)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 31)
	const draws = 31 * 1000
	for i := 0; i < draws; i++ {
		v := f.Rand(rng)
		if !f.Valid(v) {
			t.Fatalf("Rand produced non-canonical %d", v)
		}
		counts[v]++
	}
	// Chi-square-ish sanity: each bucket within 3x of expectation.
	for v, c := range counts {
		if c < 1000/3 || c > 3000 {
			t.Fatalf("Rand skewed at %d: count=%d", v, c)
		}
	}
}

func TestSum(t *testing.T) {
	f := MustNew(13)
	xs := []uint64{12, 12, 12, 5, 100}
	want := (12 + 12 + 12 + 5 + 100) % 13
	if got := f.Sum(xs); got != uint64(want) {
		t.Fatalf("Sum = %d, want %d", got, want)
	}
	if got := f.Sum(nil); got != 0 {
		t.Fatalf("Sum(nil) = %d, want 0", got)
	}
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		2: true, 3: true, 4: false, 5: true, 6: false, 7: true, 8: false,
		9: false, 25: false, 97: true, 561: false, 7919: true,
	}
	for n, want := range primes {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPrime(t *testing.T) {
	tests := []struct{ n, want uint64 }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {10000, 10007}, {25000, 25013},
	}
	for _, tt := range tests {
		if got := NextPrime(tt.n); got != tt.want {
			t.Errorf("NextPrime(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

// Property: Add is commutative and associative; Mul distributes over Add.
func TestFieldAxiomsQuick(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(7))
	gen := func() uint64 { return f.Rand(rng) }

	commut := func(seed int64) bool {
		a, b := gen(), gen()
		return f.Add(a, b) == f.Add(b, a) && f.Mul(a, b) == f.Mul(b, a)
	}
	if err := quick.Check(commut, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}

	assoc := func(seed int64) bool {
		a, b, c := gen(), gen(), gen()
		return f.Add(f.Add(a, b), c) == f.Add(a, f.Add(b, c)) &&
			f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}

	distrib := func(seed int64) bool {
		a, b, c := gen(), gen(), gen()
		return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}

	subInverse := func(seed int64) bool {
		a, b := gen(), gen()
		return f.Add(f.Sub(a, b), b) == a
	}
	if err := quick.Check(subInverse, nil); err != nil {
		t.Errorf("sub/add inverse: %v", err)
	}
}

func BenchmarkMul(b *testing.B) {
	f := Default()
	x := uint64(0x123456789abcdef)
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, x|1)
	}
	_ = x
}

// refRand is the general rejection sampler written with %, the reference
// the power-of-two fast path must reproduce draw for draw.
func refRand(q uint64, rng *rand.Rand) uint64 {
	max := ^uint64(0) - (^uint64(0) % q)
	for {
		v := rng.Uint64()
		if v < max {
			return v % q
		}
	}
}

// On every power-of-two additive group the masked fast path must equal the
// %-based formulas, and Rand must consume the same draws.
func TestAdditivePowerOfTwoMatchesModFormulas(t *testing.T) {
	for k := 1; k <= 62; k++ {
		q := uint64(1) << uint(k)
		f, err := NewAdditive(q)
		if err != nil {
			t.Fatal(err)
		}
		if f.mask != q-1 {
			t.Fatalf("k=%d: mask %#x, want %#x", k, f.mask, q-1)
		}
		in := rand.New(rand.NewSource(int64(k)))
		for i := 0; i < 2000; i++ {
			x := in.Uint64()
			if got, want := f.Reduce(x), x%q; got != want {
				t.Fatalf("k=%d: Reduce(%d) = %d, want %d", k, x, got, want)
			}
			a, b := in.Uint64()%q, in.Uint64()%q
			if got, want := f.Add(a, b), (a+b)%q; got != want {
				t.Fatalf("k=%d: Add(%d, %d) = %d, want %d", k, a, b, got, want)
			}
			if got, want := f.Sub(a, b), (a+q-b)%q; got != want {
				t.Fatalf("k=%d: Sub(%d, %d) = %d, want %d", k, a, b, got, want)
			}
		}
		fast := rand.New(rand.NewSource(int64(100 + k)))
		ref := rand.New(rand.NewSource(int64(100 + k)))
		for i := 0; i < 2000; i++ {
			if got, want := f.Rand(fast), refRand(q, ref); got != want {
				t.Fatalf("k=%d draw %d: Rand = %d, want %d", k, i, got, want)
			}
		}
		if fast.Uint64() != ref.Uint64() {
			t.Fatalf("k=%d: Rand left the stream in a different state", k)
		}
	}
}

// scripted is a rand.Source64 that replays fixed values.
type scripted struct{ vals []uint64 }

func (s *scripted) Uint64() uint64 {
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}
func (s *scripted) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *scripted) Seed(int64)   {}

// Rand on Z_q, q = 2^k, rejects exactly the draws v ≥ 2^64 − q: the bound
// itself and the top value are rejected, the value just below is kept.
func TestAdditiveRandRejectionBound(t *testing.T) {
	for _, k := range []int{1, 5, 33, 62} {
		q := uint64(1) << uint(k)
		f, err := NewAdditive(q)
		if err != nil {
			t.Fatal(err)
		}
		bound := -q // 2^64 − q
		src := &scripted{vals: []uint64{bound, ^uint64(0), bound - 1, 7}}
		if got, want := f.Rand(rand.New(src)), (bound-1)&(q-1); got != want {
			t.Fatalf("k=%d: Rand = %d, want %d", k, got, want)
		}
		if len(src.vals) != 1 {
			t.Fatalf("k=%d: Rand consumed %d draws, want 3", k, 4-len(src.vals))
		}
	}
}

// Prime fields keep the %-based path, q = 2 included; so do composite
// non-power-of-two additive groups.
func TestPrimeAndOddGroupsKeepModPath(t *testing.T) {
	for _, q := range []uint64{2, 5, 8191, DefaultModulus} {
		if f := MustNew(q); f.mask != 0 {
			t.Errorf("prime q=%d took the mask path", q)
		}
	}
	if f := Default(); f.mask != 0 {
		t.Error("default field took the mask path")
	}
	f, err := NewAdditive(12)
	if err != nil {
		t.Fatal(err)
	}
	if f.mask != 0 {
		t.Error("q=12 took the mask path")
	}
	if got := f.Reduce(29); got != 5 {
		t.Errorf("Z_12 Reduce(29) = %d, want 5", got)
	}
}
