package op

import "repro/internal/rng"

// Random-keys crossovers ([]float64 genomes, Huang et al. [24] and the
// Giffler-Thompson priority vectors).

// UniformKeys is the uniform crossover on key vectors.
func UniformKeys(r *rng.RNG, a, b []float64) ([]float64, []float64) {
	return uniformInto(r, 0.5, a, b, nil, nil)
}

// ParameterizedUniformKeys is Huang et al.'s parameterized uniform
// crossover: each key of the first child comes from the first parent with
// probability p (p > 0.5 biases children toward the elite parent).
func ParameterizedUniformKeys(p float64) func(r *rng.RNG, a, b []float64) ([]float64, []float64) {
	return func(r *rng.RNG, a, b []float64) ([]float64, []float64) {
		return uniformInto(r, p, a, b, nil, nil)
	}
}

// ArithmeticKeys is the arithmetic crossover used by Zajicek & Šucha [25]:
// children are convex combinations of the parents with a random mixing
// coefficient.
func ArithmeticKeys(r *rng.RNG, a, b []float64) ([]float64, []float64) {
	n := len(a)
	alpha := r.Float64()
	c1 := make([]float64, n)
	c2 := make([]float64, n)
	for i := 0; i < n; i++ {
		c1[i] = alpha*a[i] + (1-alpha)*b[i]
		c2[i] = alpha*b[i] + (1-alpha)*a[i]
	}
	return c1, c2
}

// OnePointKeys is the one-point crossover on key vectors.
func OnePointKeys(r *rng.RNG, a, b []float64) ([]float64, []float64) {
	n := len(a)
	cut := r.Intn(n + 1)
	c1 := make([]float64, n)
	c2 := make([]float64, n)
	copy(c1, a[:cut])
	copy(c1[cut:], b[cut:])
	copy(c2, b[:cut])
	copy(c2[cut:], a[cut:])
	return c1, c2
}
