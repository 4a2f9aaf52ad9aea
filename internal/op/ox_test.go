package op

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// oxChildOracle is the map-based order-crossover child: keep a's segment
// [c1, c2), list the free positions and b's values (both cyclically from
// c2 when cyclic, else left to right) and fill the one with the other,
// skipping values already in the segment. It is the reference OX and LOX
// must match.
func oxChildOracle(a, b []int, c1, c2 int, cyclic bool) []int {
	n := len(a)
	child := make([]int, n)
	used := make(map[int]bool, c2-c1)
	for i := c1; i < c2; i++ {
		child[i] = a[i]
		used[a[i]] = true
	}
	fillPositions := make([]int, 0, n-(c2-c1))
	if cyclic {
		for k := 0; k < n; k++ {
			pos := (c2 + k) % n
			if pos >= c1 && pos < c2 {
				continue
			}
			fillPositions = append(fillPositions, pos)
		}
	} else {
		for pos := 0; pos < n; pos++ {
			if pos >= c1 && pos < c2 {
				continue
			}
			fillPositions = append(fillPositions, pos)
		}
	}
	src := make([]int, 0, n)
	if cyclic {
		for k := 0; k < n; k++ {
			src = append(src, b[(c2+k)%n])
		}
	} else {
		src = append(src, b...)
	}
	fi := 0
	for _, v := range src {
		if used[v] {
			continue
		}
		child[fillPositions[fi]] = v
		fi++
		if fi == len(fillPositions) {
			break
		}
	}
	return child
}

// TestOrderCrossoversMatchOracle is the property test for the one
// order-crossover kernel: on random permutations of every tested length
// and for every cut pair 0 <= c1 < c2 <= n, oxChildInto (into a child and
// mask left dirty by the previous call) equals the map-based oracle in
// both fill orders, and OX and LOX draw their cuts and build both children
// exactly as the oracle does.
func TestOrderCrossoversMatchOracle(t *testing.T) {
	gr := rng.New(91)
	ops := []struct {
		name   string
		cross  func(r *rng.RNG, a, b []int) ([]int, []int)
		cyclic bool
	}{{"OX", OX, true}, {"LOX", LOX, false}}
	for _, n := range []int{1, 2, 9, 20} {
		child, used := make([]int, n), make([]bool, n)
		for trial := 0; trial < 4; trial++ {
			a, b := gr.Perm(n), gr.Perm(n)
			for c1 := 0; c1 < n; c1++ {
				for c2 := c1 + 1; c2 <= n; c2++ {
					for _, o := range ops {
						from := 0
						if o.cyclic {
							from = c2
						}
						oxChildInto(child, a, b, c1, c2, from, used)
						if want := oxChildOracle(a, b, c1, c2, o.cyclic); !reflect.DeepEqual(child, want) {
							t.Fatalf("%s n=%d cuts [%d,%d) of %v, %v: kernel %v, oracle %v", o.name, n, c1, c2, a, b, child, want)
						}
					}
				}
			}
			for seed := uint64(0); seed < 16; seed++ {
				for _, o := range ops {
					ro := rng.New(seed)
					c1, c2 := twoCuts(ro, n)
					w1, w2 := oxChildOracle(a, b, c1, c2, o.cyclic), oxChildOracle(b, a, c1, c2, o.cyclic)
					r := rng.New(seed)
					g1, g2 := o.cross(r, a, b)
					if !reflect.DeepEqual(g1, w1) || !reflect.DeepEqual(g2, w2) {
						t.Fatalf("%s n=%d seed %d: children %v, %v; oracle %v, %v", o.name, n, seed, g1, g2, w1, w2)
					}
					if r.Uint64() != ro.Uint64() {
						t.Fatalf("%s n=%d seed %d: consumed different randomness than the oracle", o.name, n, seed)
					}
				}
			}
		}
	}
}
