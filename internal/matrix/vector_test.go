package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorDot(t *testing.T) {
	x := Vector{1, 2, 3}
	y := Vector{4, -5, 6}
	if got := x.Dot(y); got != 12 {
		t.Fatalf("dot = %v, want 12", got)
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestNorms(t *testing.T) {
	x := Vector{3, -4}
	if got := x.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm2 = %v", got)
	}
	if got := x.Norm1(); got != 7 {
		t.Fatalf("Norm1 = %v", got)
	}
	if got := x.NormInf(); got != 4 {
		t.Fatalf("NormInf = %v", got)
	}
}

func TestNorm2Stability(t *testing.T) {
	// A naive sum of squares overflows; the scaled implementation must not.
	x := Vector{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := x.Norm2(); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm2 = %v, want %v", got, want)
	}
	if got := (Vector{0, 0}).Norm2(); got != 0 {
		t.Fatalf("Norm2 of zero = %v", got)
	}
}

func TestSumMeanMinMax(t *testing.T) {
	x := Vector{2, -1, 5}
	if x.Sum() != 6 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 2 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	var empty Vector
	if empty.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestScaleAddScaledSub(t *testing.T) {
	x := Vector{1, 2}
	x.Scale(3)
	if x[0] != 3 || x[1] != 6 {
		t.Fatalf("Scale: %v", x)
	}
	x.AddScaled(2, Vector{1, 1})
	if x[0] != 5 || x[1] != 8 {
		t.Fatalf("AddScaled: %v", x)
	}
}

func TestNormalize(t *testing.T) {
	x := Vector{3, 4}
	n := x.Normalize()
	if math.Abs(n-5) > 1e-12 {
		t.Fatalf("returned norm %v", n)
	}
	if math.Abs(x.Norm2()-1) > 1e-12 {
		t.Fatalf("not unit after Normalize: %v", x.Norm2())
	}
	z := Vector{0, 0}
	if z.Normalize() != 0 {
		t.Fatal("zero vector normalize should return 0")
	}
}

func TestProjectOut(t *testing.T) {
	x := Vector{1, 2, 3}
	ones := Vector{1, 1, 1}
	x.ProjectOut(ones)
	if math.Abs(x.Dot(ones)) > 1e-12 {
		t.Fatalf("residual not orthogonal: %v", x.Dot(ones))
	}
	// Projecting out the zero vector is a no-op.
	y := Vector{1, 2}
	y.ProjectOut(Vector{0, 0})
	if y[0] != 1 || y[1] != 2 {
		t.Fatal("ProjectOut(0) must be a no-op")
	}
}

func TestSortedAndClone(t *testing.T) {
	x := Vector{3, 1, 2}
	c := x.Clone()
	c[0] = 99
	if x[0] != 3 {
		t.Fatal("Clone must copy")
	}
}

func TestFillAndApproxEqual(t *testing.T) {
	x := make(Vector, 3).Fill(7)
	if x[2] != 7 {
		t.Fatalf("Fill: %v", x)
	}
	if !x.ApproxEqual(Vector{7, 7, 7 + 1e-12}, 1e-9) {
		t.Fatal("ApproxEqual should tolerate 1e-12")
	}
	if x.ApproxEqual(Vector{7, 7}, 1) {
		t.Fatal("length mismatch must not be equal")
	}
}

// Property: Cauchy-Schwarz |⟨x,y⟩| ≤ ‖x‖‖y‖.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 1 + r.Intn(16)
		x, y := randomVector(r, n), randomVector(r, n)
		return math.Abs(x.Dot(y)) <= x.Norm2()*y.Norm2()*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for Norm2 on x+y.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 1 + r.Intn(16)
		x, y := randomVector(r, n), randomVector(r, n)
		sum := x.Clone().AddScaled(1, y)
		return sum.Norm2() <= x.Norm2()+y.Norm2()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ProjectOut leaves a vector orthogonal to the direction.
func TestProjectOutOrthogonalProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + r.Intn(10)
		x, u := randomVector(r, n), randomVector(r, n)
		if u.Norm2() == 0 {
			return true
		}
		x.ProjectOut(u)
		return math.Abs(x.Dot(u)) < 1e-9*(1+u.Norm2())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
