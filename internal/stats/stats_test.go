package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(99)
	var s float64
	const n = 100000
	for i := 0; i < n; i++ {
		s += r.Float64()
	}
	if m := s / n; !almostEq(m, 0.5, 0.01) {
		t.Fatalf("mean of uniforms = %v, want ~0.5", m)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(23)
	const n = 100000
	var s float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		s += v
	}
	if m := s / n; !almostEq(m, 1, 0.02) {
		t.Fatalf("exponential mean = %v, want ~1", m)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.1)
		if v < 90 || v > 110 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(1)
	child := parent.Fork()
	// Child stream should not equal a freshly advanced parent stream.
	if child.Uint64() == parent.Uint64() {
		t.Log("single collision tolerated") // one equal draw can happen; check more
		if child.Uint64() == parent.Uint64() && child.Uint64() == parent.Uint64() {
			t.Fatal("forked stream mirrors parent")
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if Variance([]float64{1}) != 0 {
		t.Fatal("Variance of singleton != 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("Quantile(nil) != 0")
	}
	if Median([]float64{5, 1, 9}) != 5 {
		t.Fatal("Median wrong")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 9 {
		t.Fatalf("Min/Max/Sum wrong: %v %v %v", Min(xs), Max(xs), Sum(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max not infinite")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestPropQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := Quantile(xs, q1), Quantile(xs, q2)
		return a <= b && a >= Min(xs) && b <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is non-negative and translation-invariant.
func TestPropVarianceInvariant(t *testing.T) {
	f := func(raw []float64, shiftRaw float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		shift := math.Mod(shiftRaw, 1e6)
		if math.IsNaN(shift) {
			shift = 0
		}
		v := Variance(xs)
		if v < 0 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		scale := math.Max(1, math.Abs(v))
		return math.Abs(Variance(shifted)-v)/scale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"all-zero", []float64{0, 0, 0}, 0},
		{"equal", []float64{5, 5, 5, 5}, 1},
		{"one-hot", []float64{10, 0, 0, 0}, 0.25}, // 1/n when one party takes all
		{"two-to-one", []float64{2, 1}, 0.9},      // (3)^2 / (2*5)
	}
	for _, c := range cases {
		if got := JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: JainIndex(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
	// Scale invariance: fairness is about proportions, not magnitudes.
	a := JainIndex([]float64{1, 2, 3, 4})
	b := JainIndex([]float64{10, 20, 30, 40})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("JainIndex is not scale-invariant: %v vs %v", a, b)
	}
}
