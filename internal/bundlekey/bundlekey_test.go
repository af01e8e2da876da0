package bundlekey

import "testing"

func TestKey(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, ""},
		{[]int{0}, "0"},
		{[]int{3, 0, 7}, "0,3,7"},
		{[]int{7, 3, 0}, "0,3,7"},
		{[]int{10, 2}, "2,10"},
		{[]int{1, 1, 2}, "1,1,2"},
	}
	for _, c := range cases {
		if got := Key(c.in); got != c.want {
			t.Errorf("Key(%v) = %q, want %q", c.in, got, c.want)
		}
		if got := string(AppendKey([]byte("k:"), c.in)); got != "k:"+c.want {
			t.Errorf("AppendKey(\"k:\", %v) = %q, want %q", c.in, got, "k:"+c.want)
		}
	}
}

func TestKeyDoesNotMutate(t *testing.T) {
	in := []int{5, 1, 3}
	_ = Key(in)
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Errorf("Key mutated its input: %v", in)
	}
	// AppendKey sorts a copy, never the caller's slice, even when the
	// caller's slice has spare capacity to sort in.
	in = append(make([]int, 0, 8), 9, 4, 0, 7)
	_ = AppendKey(nil, in)
	if in[0] != 9 || in[1] != 4 || in[2] != 0 || in[3] != 7 {
		t.Errorf("AppendKey mutated its input: %v", in)
	}
}

func TestKeyDistinguishesAmbiguousJoins(t *testing.T) {
	// A naive digit-concatenation would collide {1,23} with {12,3}; the
	// comma separator must keep them apart.
	if Key([]int{1, 23}) == Key([]int{12, 3}) {
		t.Fatal("keys collide for distinct bundles")
	}
}

func BenchmarkKey(b *testing.B) {
	features := []int{9, 4, 0, 7, 2, 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Key(features)
	}
}
