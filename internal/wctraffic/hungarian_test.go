package wctraffic

import "math"

// hungarian solves the maximum-weight assignment problem on an n x n weight
// matrix in O(n^3): it returns the assignment (row i -> column assign[i])
// and the total weight. This is the general method for finding the
// worst-case permutation demand for a single channel from per-demand load
// contributions [27]; the tests use it to cross-check the exhaustive
// permutation search of Evaluate.
func hungarian(w [][]float64) ([]int, float64) {
	n := len(w)
	for _, row := range w {
		if len(row) != n {
			panic("wctraffic: Hungarian needs a square matrix")
		}
	}
	if n == 0 {
		return nil, 0
	}
	// Classic potentials formulation on the cost matrix c = -w
	// (minimization), with 1-based auxiliary arrays.
	const inf = math.MaxFloat64
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row assigned to column j
	way := make([]int, n+1)
	cost := func(i, j int) float64 { return -w[i-1][j-1] }

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost(i0, j) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	assign := make([]int, n)
	total := 0.0
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
			total += w[p[j]-1][j-1]
		}
	}
	return assign, total
}

// worstChannelLoad computes, for a single chip channel, the heaviest load
// any permutation demand can place on it, using the Hungarian method over
// the per-demand contribution matrix. U-turn demands are excluded by
// assigning them -infinity-like weight (large negative).
func worstChannelLoad(contrib [][]float64) float64 {
	n := len(contrib)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		copy(w[i], contrib[i])
		w[i][i] = -1e9 // forbid U-turns
	}
	_, total := hungarian(w)
	return total
}
