package reldb

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() not null")
	}
	if Int(42).Int64() != 42 {
		t.Fatal("Int round-trip failed")
	}
	if Float(2.5).Float64() != 2.5 {
		t.Fatal("Float round-trip failed")
	}
	if String_("abc").Str() != "abc" {
		t.Fatal("String round-trip failed")
	}
	if !Bool(true).BoolVal() || Bool(false).BoolVal() {
		t.Fatal("Bool round-trip failed")
	}
}

func TestValueAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int64 on string value did not panic")
		}
	}()
	_ = String_("x").Int64()
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":  Null(),
		"7":     Int(7),
		"1.5":   Float(1.5),
		"hi":    String_("hi"),
		"TRUE":  Bool(true),
		"FALSE": Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(5), Int(5), 0},
		{String_("a"), String_("b"), -1},
		{Float(1.5), Float(1.5), 0},
		{Bool(false), Bool(true), -1},
		{Null(), Int(0), -1},       // NULL sorts first
		{Null(), String_(""), -1},  // NULL before any kind
		{Int(9), String_("0"), -1}, // cross-kind: by kind tag
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); sign(got) != c.want {
			t.Errorf("Compare(%v,%v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); sign(got) != -c.want {
			t.Errorf("Compare(%v,%v) = %d, want sign %d", c.b, c.a, got, -c.want)
		}
	}
}

// TestValueIsThreeWords: a cell is a string's bytes and length, or a number
// in the length word, and a kind — a FLOAT has no word of its own.
func TestValueIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("Value is %d bytes, want 24", got)
	}
}

// TestFloatOrder: a FLOAT kept as its bits still orders as a number, not
// as the bits: negatives before positives, -0 equal to 0, and NaN — as
// ever — equal to everything, so it never decides a comparison.
func TestFloatOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	asc := []float64{math.Inf(-1), -2.5, -1e-300, 0, 1e-300, 1.5, math.MaxFloat64, math.Inf(1)}
	for i, a := range asc {
		if got := Float(a).Float64(); got != a {
			t.Errorf("Float(%v) round-trips as %v", a, got)
		}
		for j, b := range asc {
			if got := sign(Float(a).Compare(Float(b))); got != sign(i-j) {
				t.Errorf("Compare(%v, %v) = %d, want %d", a, b, got, sign(i-j))
			}
		}
		if got := Float(math.NaN()).Compare(Float(a)) | Float(a).Compare(Float(math.NaN())); got != 0 {
			t.Errorf("NaN against %v compares %d, want 0", a, got)
		}
	}
	if !Float(negZero).Equal(Float(0)) || !math.Signbit(Float(negZero).Float64()) {
		t.Error("-0 must equal 0 and keep its sign bit")
	}
	if !math.IsNaN(Float(math.NaN()).Float64()) {
		t.Error("NaN does not round-trip")
	}
	// Kind tags still order across kinds, NULL first.
	order := []Value{Null(), Int(math.MaxInt64), Float(math.Inf(-1)), String_(""), Bool(false)}
	for i := range order {
		for j := range order {
			if got := sign(order[i].Compare(order[j])); got != sign(i-j) {
				t.Errorf("Compare(%v, %v) = %d, want %d", order[i], order[j], got, sign(i-j))
			}
		}
	}
	if String_("").Str() != "" || String_("").Compare(String_("")) != 0 {
		t.Error("empty string")
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestKeyCompareLexicographic(t *testing.T) {
	a := Key{Int(1), String_("a")}
	b := Key{Int(1), String_("b")}
	c := Key{Int(2)}
	prefix := Key{Int(1)}
	if a.Compare(b) >= 0 {
		t.Fatal("(1,a) should sort before (1,b)")
	}
	if b.Compare(c) >= 0 {
		t.Fatal("(1,b) should sort before (2)")
	}
	if prefix.Compare(a) >= 0 {
		t.Fatal("prefix (1) should sort before (1,a)")
	}
	if a.Compare(a) != 0 {
		t.Fatal("key not equal to itself")
	}
}

// Property: Value.Compare is antisymmetric and transitive-consistent for
// integer values (spot-check of total order laws).
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(x, y int64) bool {
		a, b := Int(x), Int(y)
		return sign(a.Compare(b)) == -sign(b.Compare(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKeyEncodeInjective(t *testing.T) {
	// encodeKey must be collision-free: two different keys never encode to
	// the same string.
	f := func(a1, a2, b1, b2 string) bool {
		ka := Key{String_(a1), String_(a2)}
		kb := Key{String_(b1), String_(b2)}
		if ka.Compare(kb) == 0 {
			return encodeKey(ka) == encodeKey(kb)
		}
		return encodeKey(ka) != encodeKey(kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), String_("x")}
	c := r.Clone()
	c[0] = Int(2)
	if r[0].Int64() != 1 {
		t.Fatal("Clone did not copy")
	}
}
