package op

import (
	"repro/internal/core"
	"repro/internal/rng"
)

// Recycling (CrossoverInto) variants of the crossovers the default operator
// bundles use. Each *Into constructor returns a FACTORY: the engine calls
// it once per worker, so an instance may keep private scratch (JOX's
// keep-mask, OX's used/fill buffers) without any cross-goroutine sharing.
//
// Every instance draws exactly the same randomness as its plain
// counterpart — TestCrossIntoMatchesCross pins each pair bit for bit — so
// wiring one into core.Operators.CrossInto never changes a trajectory; it
// only redirects where the children's storage comes from. Destinations
// must not alias the parents (the engine hands in genomes of the retired
// generation, which cannot alias the live population).

// into resizes dst to n reusing its capacity. The contents are
// unspecified; callers overwrite every element.
func into[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

// JOXInto is the recycling job-order crossover (see JOX). The factory's
// instances own the keep-mask and fill scratch, so a steady-state call
// allocates nothing.
func JOXInto(numJobs int) func() core.CrossoverInto[[]int] {
	return func() core.CrossoverInto[[]int] {
		keep := make([]int, numJobs)
		var fill []int
		return func(r *rng.RNG, a, b, dst1, dst2 []int) ([]int, []int) {
			fill = into(fill, max(len(a), len(b)))
			dst1 = into(dst1, len(a))
			dst2 = into(dst2, len(b))
			jox(r, a, b, dst1, dst2, keep, fill)
			return dst1, dst2
		}
	}
}

// jox is the one JOX kernel behind JOX and JOXInto. It draws the keep
// mask — len(keep) fair coins in job order, 1 meaning the job keeps its
// positions — and writes both children: c1 (len(a)) from a kept and b
// filling, c2 (len(b)) the other way round. fill is scratch of at least
// max(len(a), len(b)).
func jox(r *rng.RNG, a, b, c1, c2, keep, fill []int) {
	for j := range keep {
		keep[j] = btoi(r.Bool(0.5))
	}
	joxChildInto(c1, a, b, keep, fill)
	joxChildInto(c2, b, a, keep, fill)
}

// joxChildInto writes the JOX child of a and b into child in two
// straight-line passes with no data-dependent branch: it compacts b's
// non-kept tokens into fill, then takes each position from a when a's
// token is kept and from the next fill token otherwise, selecting with a
// mask. Tokens must lie in [0, len(keep)).
//
// A valid JOX needs parents with the same token multiset. For parents
// that differ, positions left without a fill token are 0, as in the
// reference two-pointer loop; nothing panics.
func joxChildInto(child, a, b, keep, fill []int) {
	w := 0
	for _, t := range b {
		fill[w] = t
		w += 1 - keep[t]
	}
	clear(fill[w:])
	child = child[:len(a)]
	r := 0
	for i, t := range a {
		k := keep[t]
		m := -k // all ones when t is kept
		child[i] = t&m | fill[r]&^m
		r += 1 - k
	}
}

// OXInto is the recycling order crossover (see OX). Instances own the
// used-mask and fill-order scratch; parents must be permutations of
// 0..n-1, like OX's.
func OXInto() func() core.CrossoverInto[[]int] {
	return func() core.CrossoverInto[[]int] {
		var used []bool
		return func(r *rng.RNG, a, b, dst1, dst2 []int) ([]int, []int) {
			n := len(a)
			used = into(used, n)
			c1, c2 := twoCuts(r, n)
			dst1 = into(dst1, n)
			dst2 = into(dst2, n)
			oxChildInto(dst1, a, b, c1, c2, c2, used)
			oxChildInto(dst2, b, a, c1, c2, c2, used)
			return dst1, dst2
		}
	}
}

// oxChildInto is the one order-crossover kernel behind OX, OXInto and
// LOX. It copies a's segment [c1, c2) into the pre-sized child, tracking
// its values in the reusable used mask, then fills the remaining positions
// in order from position `from`, wrapping, with b's values read in order
// from index `from`, skipping values already in the segment. OX fills from
// c2, LOX from 0.
func oxChildInto(child, a, b []int, c1, c2, from int, used []bool) {
	n := len(a)
	clear(used)
	for i := c1; i < c2; i++ {
		child[i] = a[i]
		used[a[i]] = true
	}
	// fi walks the child's positions and bi b's, both wrapping at n by a
	// compare rather than a division.
	fi := from % n
	bi := fi
	for range n {
		v := b[bi]
		if bi++; bi == n {
			bi = 0
		}
		if used[v] {
			continue
		}
		for fi >= c1 && fi < c2 {
			if fi++; fi == n {
				fi = 0
			}
		}
		child[fi] = v
		if fi++; fi == n {
			fi = 0
		}
	}
}

// UniformKeysInto is the recycling parameterized uniform crossover on key
// vectors (see ParameterizedUniformKeys; p = 0.5 is UniformKeys).
func UniformKeysInto(p float64) func() core.CrossoverInto[[]float64] {
	return func() core.CrossoverInto[[]float64] {
		return func(r *rng.RNG, a, b, dst1, dst2 []float64) ([]float64, []float64) {
			return uniformInto(r, p, a, b, dst1, dst2)
		}
	}
}

// UniformIntInto is the recycling uniform crossover on integer vectors
// (see UniformInt).
func UniformIntInto() func() core.CrossoverInto[[]int] {
	return func() core.CrossoverInto[[]int] {
		return func(r *rng.RNG, a, b, dst1, dst2 []int) ([]int, []int) {
			return uniformInto(r, 0.5, a, b, dst1, dst2)
		}
	}
}

// uniformInto is the one uniform crossover kernel behind the plain and
// recycling forms on keys and ints: each position of the first child comes
// from a with probability p, else from b, and the second child takes the
// other parent's gene. Nil destinations get fresh storage.
func uniformInto[T any](r *rng.RNG, p float64, a, b, dst1, dst2 []T) ([]T, []T) {
	n := len(a)
	dst1 = into(dst1, n)
	dst2 = into(dst2, n)
	for i := 0; i < n; i++ {
		if r.Bool(p) {
			dst1[i], dst2[i] = a[i], b[i]
		} else {
			dst1[i], dst2[i] = b[i], a[i]
		}
	}
	return dst1, dst2
}
