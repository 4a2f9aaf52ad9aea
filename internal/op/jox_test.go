package op

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// joxChildOracle is the two-pointer JOX child: walk a, keep a's kept-job
// tokens in place and fill every other position with the next non-kept
// token of b. It is the reference the branch-free kernel must match.
func joxChildOracle(a, b []int, keep []bool) []int {
	child := make([]int, len(a))
	bi := 0
	for i := range a {
		if keep[a[i]] {
			child[i] = a[i]
			continue
		}
		for bi < len(b) && keep[b[bi]] {
			bi++
		}
		if bi < len(b) {
			child[i] = b[bi]
			bi++
		}
	}
	return child
}

// joxOracle is JOX built on joxChildOracle, drawing the keep mask exactly
// as JOX does.
func joxOracle(numJobs int, r *rng.RNG, a, b []int) ([]int, []int) {
	keep := make([]bool, numJobs)
	for j := range keep {
		keep[j] = r.Bool(0.5)
	}
	return joxChildOracle(a, b, keep), joxChildOracle(b, a, keep)
}

// checkJOXAgainstOracle runs JOX, a fresh JOXInto instance and a reused
// one (dst carrying stale data) from the same RNG state and requires all
// three to equal the oracle's children and to leave the RNG in the
// oracle's state.
func checkJOXAgainstOracle(t *testing.T, numJobs int, seed uint64, a, b []int, reused func(r *rng.RNG, a, b, d1, d2 []int) ([]int, []int)) {
	t.Helper()
	ro := rng.New(seed)
	w1, w2 := joxOracle(numJobs, ro, a, b)
	want := ro.Uint64()

	rp := rng.New(seed)
	p1, p2 := JOX(numJobs)(rp, a, b)
	ri := rng.New(seed)
	dirty := func(n int) []int {
		d := make([]int, n)
		for i := range d {
			d[i] = -9
		}
		return d
	}
	i1, i2 := reused(ri, a, b, dirty(len(a)+2), dirty(1))
	for name, got := range map[string][2][]int{"JOX": {p1, p2}, "JOXInto": {i1, i2}} {
		if !reflect.DeepEqual(got[0], w1) || !reflect.DeepEqual(got[1], w2) {
			t.Fatalf("%s(%v, %v) = %v, %v; oracle %v, %v", name, a, b, got[0], got[1], w1, w2)
		}
	}
	if rp.Uint64() != want || ri.Uint64() != want {
		t.Fatalf("JOX kernels consumed different randomness than the oracle")
	}
}

// TestJOXMatchesOracle is the property test: on random valid operation
// sequences of many shapes — one job, one operation per job, many of
// each — the kernel equals the two-pointer oracle bit for bit.
func TestJOXMatchesOracle(t *testing.T) {
	gr := rng.New(77)
	for trial := 0; trial < 500; trial++ {
		jobs := 1 + gr.Intn(12)
		opsPer := 1 + gr.Intn(10)
		into := JOXInto(jobs)()
		for k := 0; k < 4; k++ { // reuse the instance's scratch
			a := randomOpSeq(gr, jobs, opsPer)
			b := randomOpSeq(gr, jobs, opsPer)
			checkJOXAgainstOracle(t, jobs, uint64(trial*4+k), a, b, into)
		}
	}
}

// TestJOXKeepMaskExtremes pins the two masks that take only one branch
// of the mask select: all jobs kept (children are the parents) and no
// job kept (children are the other parent).
func TestJOXKeepMaskExtremes(t *testing.T) {
	gr := rng.New(5)
	for _, jobs := range []int{1, 3, 8} {
		a := randomOpSeq(gr, jobs, 5)
		b := randomOpSeq(gr, jobs, 5)
		fill := make([]int, len(a))
		for _, kept := range []int{0, 1} {
			keep := make([]int, jobs)
			bk := make([]bool, jobs)
			for j := range keep {
				keep[j], bk[j] = kept, kept == 1
			}
			for _, pair := range [][2][]int{{a, b}, {b, a}} {
				child := make([]int, len(a))
				joxChildInto(child, pair[0], pair[1], keep, fill)
				if want := joxChildOracle(pair[0], pair[1], bk); !reflect.DeepEqual(child, want) {
					t.Fatalf("jobs=%d kept=%d: child %v, oracle %v", jobs, kept, child, want)
				}
				want := pair[1]
				if kept == 1 {
					want = pair[0]
				}
				if !reflect.DeepEqual(child, want) {
					t.Fatalf("jobs=%d kept=%d: child %v, want %v", jobs, kept, child, want)
				}
			}
		}
	}
}

// TestJOXMismatchedParents feeds parents whose token multisets differ
// (and whose lengths differ): the kernel must not panic and must leave 0
// wherever the oracle runs out of fill tokens.
func TestJOXMismatchedParents(t *testing.T) {
	cases := [][2][]int{
		{{0, 0, 1, 1}, {2, 2, 2, 2}},
		{{2, 2, 2, 2}, {0, 0, 1, 1}},
		{{0, 1, 2, 0, 1, 2}, {0, 1}},
		{{0, 1}, {2, 1, 0, 2, 1, 0}},
		{{1, 1, 1}, {}},
	}
	into := JOXInto(3)()
	for i, c := range cases {
		for seed := uint64(0); seed < 16; seed++ {
			checkJOXAgainstOracle(t, 3, seed+uint64(100*i), c[0], c[1], into)
		}
	}
}

// TestJOXIntoZeroAlloc guards the recycling contract: once its scratch
// and destinations are sized, a JOXInto call allocates nothing.
func TestJOXIntoZeroAlloc(t *testing.T) {
	r := rng.New(1)
	a, b := randomOpSeq(r, 15, 10), randomOpSeq(r, 15, 10)
	into := JOXInto(15)()
	d1, d2 := into(r, a, b, nil, nil)
	if n := testing.AllocsPerRun(100, func() { d1, d2 = into(r, a, b, d1, d2) }); n != 0 {
		t.Fatalf("steady-state JOXInto allocates %.1f times per call, want 0", n)
	}
}

// TestJOXOneAlloc guards plain JOX's allocation budget — both children
// and its scratch come from one allocation per call — and that the
// children cannot grow into each other: appending to the first leaves the
// second intact.
func TestJOXOneAlloc(t *testing.T) {
	r := rng.New(1)
	a, b := randomOpSeq(r, 15, 10), randomOpSeq(r, 15, 10)
	cross := JOX(15)
	if n := testing.AllocsPerRun(100, func() { cross(r, a, b) }); n != 1 {
		t.Fatalf("JOX allocates %.1f times per call, want 1", n)
	}
	c1, c2 := cross(r, a, b)
	if cap(c1) != len(a) || cap(c2) != len(b) {
		t.Fatalf("children have cap %d, %d; want %d, %d", cap(c1), cap(c2), len(a), len(b))
	}
	want := append([]int(nil), c2...)
	_ = append(c1, -1)
	if !reflect.DeepEqual(c2, want) {
		t.Fatalf("appending to the first child changed the second")
	}
}

// FuzzJOXInto checks the kernel against the oracle on fuzzer-chosen
// shapes: the fuzz input picks the job count, operations per job and the
// seeds of both parents and the keep mask.
func FuzzJOXInto(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint64(1), uint64(2))
	f.Add(uint8(15), uint8(10), uint64(3), uint64(4))
	f.Add(uint8(2), uint8(50), uint64(5), uint64(6))
	f.Fuzz(func(t *testing.T, jobs, opsPer uint8, genSeed, crossSeed uint64) {
		nj, no := 1+int(jobs%32), 1+int(opsPer%32)
		gr := rng.New(genSeed)
		a, b := randomOpSeq(gr, nj, no), randomOpSeq(gr, nj, no)
		checkJOXAgainstOracle(t, nj, crossSeed, a, b, JOXInto(nj)())
	})
}
