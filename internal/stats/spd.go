package stats

import (
	"errors"
	"fmt"
	"math"
)

// SPD linear algebra for the effective-resistance objective model.
//
// The resistance model values a candidate intersection by its random-walk
// accessibility to the shop, which reduces to the diagonal of the inverse
// of a grounded graph Laplacian — a symmetric positive-definite system.
// Two solvers cover the size spectrum: a dense Cholesky factorization for
// the instances the figure runners use (factored inside the matrix's
// envelope, with the inverse diagonal read off by one-sided unit solves
// that are bitwise the full substitutions) and a conjugate-gradient
// iteration for larger graphs (matrix-free over a CSR operator,
// deterministic iteration order so engine construction keeps the
// bit-identity contract). Both are checked against a Gauss-Jordan dense
// inverse that shares no code with them; it lives in the tests.

// Errors reported by the SPD solvers.
var (
	// ErrNotSPD reports a matrix whose Cholesky factorization hit a
	// non-positive pivot: the input is not symmetric positive definite.
	ErrNotSPD = errors.New("stats: matrix is not positive definite")
	// ErrNoConverge reports a conjugate-gradient run that exhausted its
	// iteration budget before reaching the requested tolerance.
	ErrNoConverge = errors.New("stats: conjugate gradient did not converge")
)

// SparseSPD is a symmetric matrix in compressed-sparse-row form with both
// triangles stored, used as the matrix-free operator of the CG solver.
// Rows are contiguous: row i's entries occupy RowOff[i]..RowOff[i+1] in
// Col/Val. Construction order is the caller's; MulVec walks rows in
// ascending order, so products (and therefore CG iterates) are
// deterministic for a fixed layout.
type SparseSPD struct {
	N      int
	RowOff []int32
	Col    []int32
	Val    []float64
}

// MulVec computes dst = m * x. dst must have length m.N and may not alias
// x.
func (m *SparseSPD) MulVec(x, dst []float64) {
	for i := 0; i < m.N; i++ {
		var sum float64
		for k := m.RowOff[i]; k < m.RowOff[i+1]; k++ {
			sum += m.Val[k] * x[m.Col[k]]
		}
		dst[i] = sum
	}
}

// Dense materializes the sparse matrix as a dense row-major matrix, the
// input form of the dense factorizations.
func (m *SparseSPD) Dense() [][]float64 {
	out := make([][]float64, m.N)
	for i := range out {
		out[i] = make([]float64, m.N)
		for k := m.RowOff[i]; k < m.RowOff[i+1]; k++ {
			out[i][m.Col[k]] += m.Val[k]
		}
	}
	return out
}

// Cholesky factors the symmetric positive-definite matrix a as L*Lᵀ and
// returns the lower-triangular factor L. Only a's lower triangle is read;
// a is not modified. Returns ErrNotSPD when a pivot is non-positive (or
// NaN), which is how callers detect a non-SPD input.
//
// The factorization works inside a's envelope: row i's entries left of
// its first non-+0 column lo[i] are bitwise +0, so L's are too, and every
// dot product starts at max(lo[i], lo[j]). Each skipped term is a product
// with an exact +0 factor, i.e. ±0, and the running sum it would be
// subtracted from is never −0 (it starts at a non-−0 entry of a, and exact
// cancellation rounds to +0), so subtracting it would change nothing. For
// finite a with no −0 in its lower triangle — everything SparseSPD.Dense
// produces — L is therefore bitwise the unskipped factorization's,
// including its +0s (DESIGN.md §3.21).
func Cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	lo := envelope(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		d := a[j][j]
		for _, v := range l[j][lo[j]:j] {
			d -= v * v
		}
		if !(d > 0) { // catches d <= 0 and NaN in one comparison
			return nil, fmt.Errorf("%w: pivot %v at column %d", ErrNotSPD, d, j)
		}
		l[j][j] = math.Sqrt(d)
		for i := j + 1; i < n; i++ {
			if lo[i] > j {
				continue // outside row i's envelope: l[i][j] stays +0
			}
			k0 := max(lo[i], lo[j])
			li, lj := l[i][k0:j], l[j][k0:j]
			lj = lj[:len(li)]
			s := a[i][j]
			for k, v := range li {
				s -= v * lj[k]
			}
			l[i][j] = s / l[j][j]
		}
	}
	return l, nil
}

// CholeskyInverseDiag returns the diagonal of (L*Lᵀ)⁻¹ given the lower
// factor L from Cholesky: entry i is bitwise what a full forward and
// backward substitution for the unit vector e_i yields at row i. Each
// solve is one-sided. The forward sweep starts at row i, because y[k<i]
// is exactly +0 and y[i] is exactly 1/L[i][i]. The backward sweep stops
// at row i and reads a transposed copy of L row-wise. Both inner loops
// skip L's +0s outside its envelope; as in Cholesky, every skipped term
// is ±0 subtracted from a sum that is never −0. The precondition is that
// of Cholesky: L finite with a positive diagonal, which every successful
// factorization of finite input returns.
func CholeskyInverseDiag(l [][]float64) []float64 {
	n := len(l)
	lo := envelope(l)
	// lt[j] holds column j of L below the diagonal, rows j+1 up to the
	// last row whose envelope reaches column j.
	last := make([]int, n)
	for k := range last {
		last[k] = k
	}
	for k := 0; k < n; k++ {
		for m := lo[k]; m < k; m++ {
			last[m] = k
		}
	}
	lt := make([][]float64, n)
	for j := range lt {
		lt[j] = make([]float64, last[j]-j)
	}
	for k := 0; k < n; k++ {
		for m := lo[k]; m < k; m++ {
			lt[m][k-m-1] = l[k][m]
		}
	}

	diag := make([]float64, n)
	y := make([]float64, n)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = 1 / l[i][i]
		for k := i + 1; k < n; k++ {
			m0 := max(i, lo[k])
			lk := l[k][m0:k]
			ym := y[m0:k]
			ym = ym[:len(lk)]
			var s float64
			for m, v := range lk {
				s -= v * ym[m]
			}
			y[k] = s / l[k][k]
		}
		for j := n - 1; j >= i; j-- {
			col := lt[j]
			xk := x[j+1 : j+1+len(col)]
			s := y[j]
			for k, v := range col {
				s -= v * xk[k]
			}
			x[j] = s / l[j][j]
		}
		diag[i] = x[i]
	}
	return diag
}

// envelope returns, for each row i of the square matrix a, the first
// column j <= i whose entry is not bitwise +0 (i when there is none).
// Entries of row i left of it are exactly +0.
func envelope(a [][]float64) []int {
	lo := make([]int, len(a))
	for i, row := range a {
		lo[i] = i
		for j := 0; j < i; j++ {
			if math.Float64bits(row[j]) != 0 {
				lo[i] = j
				break
			}
		}
	}
	return lo
}

// CG solves m*x = b by conjugate gradients from a zero initial guess,
// stopping when the residual 2-norm falls to tol relative to the 2-norm
// of b (absolute tol for a zero b). The iteration is a fixed sequence of
// dot products and axpys over slices walked in index order, so the result
// is deterministic for fixed inputs. Returns the solution and the number
// of iterations used, or ErrNoConverge after maxIter iterations.
func CG(m *SparseSPD, b []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := m.N
	x := make([]float64, n)
	r := make([]float64, n)
	copy(r, b)
	p := make([]float64, n)
	copy(p, b)
	ap := make([]float64, n)

	dot := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	rr := dot(r, r)
	limit := tol * math.Sqrt(dot(b, b))
	//lint:ignore floatcmp a zero right-hand side needs an absolute fallback tolerance
	if limit == 0 {
		limit = tol
	}
	limit *= limit
	for it := 0; it < maxIter; it++ {
		if rr <= limit {
			return x, it, nil
		}
		m.MulVec(p, ap)
		pap := dot(p, ap)
		if !(pap > 0) {
			return nil, it, fmt.Errorf("%w: curvature %v at iteration %d", ErrNotSPD, pap, it)
		}
		alpha := rr / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNext := dot(r, r)
		beta := rrNext / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNext
	}
	if rr <= limit {
		return x, maxIter, nil
	}
	return nil, maxIter, fmt.Errorf("%w: residual² %v > %v after %d iterations", ErrNoConverge, rr, limit, maxIter)
}
