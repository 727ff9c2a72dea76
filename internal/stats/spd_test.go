package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// errSingular reports a Gauss-Jordan pivot too small to invert through.
var errSingular = errors.New("stats: matrix is numerically singular")

// spdInverse inverts the matrix a by Gauss-Jordan elimination with partial
// pivoting. It deliberately shares no code with Cholesky: the differential
// tests use it as the independent oracle the factorization and CG paths
// are compared against. a is not modified.
func spdInverse(a [][]float64) ([][]float64, error) {
	n := len(a)
	// Augmented work matrix [A | I].
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, 2*n)
		copy(w[i], a[i])
		w[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in the column at or below the
		// diagonal; first occurrence wins so the elimination is
		// deterministic.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(w[r][col]) > math.Abs(w[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(w[pivot][col]) < 1e-300 {
			return nil, fmt.Errorf("%w: pivot column %d", errSingular, col)
		}
		w[col], w[pivot] = w[pivot], w[col]
		inv := 1 / w[col][col]
		for c := 0; c < 2*n; c++ {
			w[col][c] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := w[r][col]
			// Exact-zero rows need no elimination: a skip, not a tolerance.
			if f == 0 {
				continue
			}
			for c := 0; c < 2*n; c++ {
				w[r][c] -= f * w[col][c]
			}
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = w[i][n:]
	}
	return out, nil
}

// spdTol is the agreement tolerance of the SPD differential tests,
// expressed as a relative error. Grounded Laplacians of random graphs with
// conductances in [0.1, 10] have condition numbers well under 1e6, so
// Cholesky, CG (tol 1e-12), and the Gauss-Jordan inverse — three code
// paths sharing no arithmetic — agree to ~1e-10 relative; 1e-8 leaves two
// decades of headroom. On the exactly-representable 2x2 fixture below the
// agreement is tighter still and asserted in ULPs via math.Float64bits.
const spdTol = 1e-8

// ulps returns the distance between a and b in representable float64
// steps, using the Float64bits ordering trick (finite, same-sign inputs).
func ulps(a, b float64) uint64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

// randomGroundedLaplacian builds the grounded Laplacian of a random
// connected undirected graph on n+1 nodes (node n is the ground). Every
// node keeps an edge toward its successor and the last node ties to
// ground, so the system is SPD.
func randomGroundedLaplacian(rng *rand.Rand, n int) *SparseSPD {
	cond := newConductances(n)
	for i := 0; i+1 < n; i++ {
		cond.add(i, i+1, 0.1+rng.Float64()*9.9)
	}
	if n > 0 {
		cond.add(n-1, n, 0.1+rng.Float64()*9.9) // tie to ground
	}
	for e := 0; e < 2*n; e++ {
		i, j := rng.Intn(n), rng.Intn(n+1)
		if i != j {
			cond.add(i, j, 0.1+rng.Float64()*9.9)
		}
	}
	return cond.laplacian()
}

// conductances is the upper triangle of an undirected graph's
// conductance matrix on n+1 nodes; node n is the ground.
type conductances [][]float64

func newConductances(n int) conductances {
	cond := make(conductances, n)
	for i := range cond {
		cond[i] = make([]float64, n+1) // column n is the ground
	}
	return cond
}

func (cond conductances) add(i, j int, c float64) {
	if i > j {
		i, j = j, i
	}
	cond[i][j] += c
}

func (cond conductances) at(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	return cond[i][j]
}

// laplacian assembles the grounded Laplacian in CSR form, columns
// ascending: the diagonal carries every incident conductance (ground
// included), the off-diagonals the negated interior ones.
func (cond conductances) laplacian() *SparseSPD {
	n := len(cond)
	sp := &SparseSPD{N: n, RowOff: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		var diag float64
		for j := 0; j <= n; j++ {
			if j != i {
				diag += cond.at(i, j)
			}
		}
		for j := 0; j < n; j++ {
			switch {
			case j == i:
				sp.Col = append(sp.Col, int32(j))
				sp.Val = append(sp.Val, diag)
			case cond.at(i, j) > 0:
				sp.Col = append(sp.Col, int32(j))
				sp.Val = append(sp.Val, -cond.at(i, j))
			}
		}
		sp.RowOff[i+1] = int32(len(sp.Col))
	}
	return sp
}

// choleskyRef is the unskipped factorization: every dot product runs
// over the whole row prefix. It is the reference the envelope-aware
// Cholesky must reproduce bit for bit.
func choleskyRef(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		d := a[j][j]
		for k := 0; k < j; k++ {
			d -= l[j][k] * l[j][k]
		}
		if !(d > 0) {
			return nil, fmt.Errorf("%w: pivot %v at column %d", ErrNotSPD, d, j)
		}
		l[j][j] = math.Sqrt(d)
		for i := j + 1; i < n; i++ {
			s := a[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			l[i][j] = s / l[j][j]
		}
	}
	return l, nil
}

// choleskySolve solves L*Lᵀ*x = b given the lower factor L by one full
// forward and one full backward substitution. It is the reference
// CholeskyInverseDiag must reproduce at each diagonal entry.
func choleskySolve(l [][]float64, b []float64) []float64 {
	n := len(l)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i][k] * y[k]
		}
		y[i] = s / l[i][i]
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k][i] * x[k]
		}
		x[i] = s / l[i][i]
	}
	return x
}

// checkFactorIdentity asserts both bit-identity contracts on a: the
// envelope Cholesky equals choleskyRef entry by entry (the +0s included),
// and CholeskyInverseDiag(L)[i] equals choleskySolve(L, e_i)[i].
func checkFactorIdentity(tb testing.TB, name string, a [][]float64) {
	tb.Helper()
	want, err := choleskyRef(a)
	if err != nil {
		tb.Fatalf("%s: reference factorization: %v", name, err)
	}
	l, err := Cholesky(a)
	if err != nil {
		tb.Fatalf("%s: Cholesky: %v", name, err)
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(l[i][j]) != math.Float64bits(want[i][j]) {
				tb.Fatalf("%s: L[%d][%d] = %v (%#x), reference %v (%#x)", name, i, j,
					l[i][j], math.Float64bits(l[i][j]), want[i][j], math.Float64bits(want[i][j]))
			}
		}
	}
	diag := CholeskyInverseDiag(l)
	if len(diag) != len(a) {
		tb.Fatalf("%s: CholeskyInverseDiag returned %d entries, want %d", name, len(diag), len(a))
	}
	e := make([]float64, len(a))
	for i := range e {
		e[i] = 1
		ref := choleskySolve(l, e)[i]
		e[i] = 0
		if math.Float64bits(diag[i]) != math.Float64bits(ref) {
			tb.Fatalf("%s: inverse diagonal [%d] = %v, full solve %v", name, i, diag[i], ref)
		}
	}
}

// TestCholeskyEnvelopeBitIdentical pins the envelope factorization and
// the one-sided unit solves to their unskipped references at the bit
// level, on random grounded Laplacians (wide, ragged envelopes), a fully
// dense SPD matrix (the envelope is the whole triangle) and a banded
// Laplacian with long ties to node 0 (exact zeros inside the envelope).
func TestCholeskyEnvelopeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for _, n := range []int{1, 2, 3, 8, 17, 33, 64, 200} {
		checkFactorIdentity(t, fmt.Sprintf("random n=%d", n), randomGroundedLaplacian(rng, n).Dense())
	}

	// B*Bᵀ + n*I with every entry of B non-zero.
	const n = 24
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = 0.5 + rng.Float64()
		}
	}
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
		for j := range dense[i] {
			for k := 0; k < n; k++ {
				dense[i][j] += b[i][k] * b[j][k]
			}
		}
		dense[i][i] += n
	}
	checkFactorIdentity(t, "dense", dense)

	// A path grounded at its end, plus a tie from every fifth node back
	// to node 0: those rows' envelopes start at column 0 but hold zeros
	// between column 1 and their path neighbour.
	const m = 40
	cond := newConductances(m)
	for i := 0; i+1 < m; i++ {
		cond.add(i, i+1, 1+rng.Float64())
	}
	cond.add(m-1, m, 1)
	for i := 5; i < m; i += 5 {
		cond.add(0, i, 0.25)
	}
	checkFactorIdentity(t, "zeros in envelope", cond.laplacian().Dense())
}

// FuzzCholeskyInverseDiag is the differential fuzz target of the dense
// resistance path: a grounded Laplacian of up to 32 interior nodes,
// shaped by the fuzz bytes and materialized through SparseSPD.Dense, must
// satisfy both bit-identity contracts of checkFactorIdentity. The first
// byte picks n; each node then takes a parent among the earlier nodes or
// the ground (so every node reaches ground and the system is SPD), and
// the remaining byte triples add extra streets.
func FuzzCholeskyInverseDiag(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 9, 200, 1, 3, 50})
	f.Add([]byte{31, 255, 254, 253, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%32
		data = data[1:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		weight := func(v int) float64 { return 0.125 + float64(v)/16 }
		cond := newConductances(n)
		for i := 0; i < n; i++ {
			parent := next() % (i + 1)
			if parent == i {
				parent = n // tie to ground
			}
			cond.add(i, parent, weight(next()))
		}
		for len(data) >= 3 {
			i, j := next()%n, next()%(n+1)
			c := weight(next())
			if i != j {
				cond.add(i, j, c)
			}
		}
		checkFactorIdentity(t, fmt.Sprintf("fuzz n=%d", n), cond.laplacian().Dense())
	})
}

// TestCholeskyMatchesSPDInverse is the differential test of the
// factorization path: solving for each unit vector must reproduce the
// Gauss-Jordan inverse column by column on systems up to 64 nodes.
func TestCholeskyMatchesSPDInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range []int{1, 2, 3, 8, 17, 33, 64} {
		sp := randomGroundedLaplacian(rng, n)
		dense := sp.Dense()
		inv, err := spdInverse(dense)
		if err != nil {
			t.Fatalf("n=%d: spdInverse: %v", n, err)
		}
		l, err := Cholesky(dense)
		if err != nil {
			t.Fatalf("n=%d: Cholesky: %v", n, err)
		}
		e := make([]float64, n)
		for col := 0; col < n; col++ {
			e[col] = 1
			x := choleskySolve(l, e)
			e[col] = 0
			for row := 0; row < n; row++ {
				want := inv[row][col]
				if math.Abs(x[row]-want) > spdTol*(1+math.Abs(want)) {
					t.Fatalf("n=%d: inverse[%d][%d]: cholesky %v vs gauss-jordan %v",
						n, row, col, x[row], want)
				}
			}
		}
	}
}

// TestCGMatchesSPDInverse is the differential test of the iterative path
// against the same independent oracle.
func TestCGMatchesSPDInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, n := range []int{1, 2, 5, 16, 40, 64} {
		sp := randomGroundedLaplacian(rng, n)
		inv, err := spdInverse(sp.Dense())
		if err != nil {
			t.Fatalf("n=%d: spdInverse: %v", n, err)
		}
		e := make([]float64, n)
		for col := 0; col < n; col++ {
			e[col] = 1
			x, iters, err := CG(sp, e, 1e-12, 10*n+100)
			e[col] = 0
			if err != nil {
				t.Fatalf("n=%d col=%d: CG: %v", n, col, err)
			}
			if iters > n+2 {
				// CG converges in at most n iterations in exact arithmetic.
				t.Fatalf("n=%d col=%d: CG took %d iterations", n, col, iters)
			}
			for row := 0; row < n; row++ {
				want := inv[row][col]
				if math.Abs(x[row]-want) > spdTol*(1+math.Abs(want)) {
					t.Fatalf("n=%d: inverse[%d][%d]: cg %v vs gauss-jordan %v",
						n, row, col, x[row], want)
				}
			}
		}
	}
}

// TestSolversExactSystem pins all three solvers on a system whose inverse
// is exactly representable, and asserts bit-level agreement in ULPs:
// A = [[2,-1],[-1,2]] has inverse [[2/3,1/3],[1/3,2/3]] whose entries
// round identically regardless of path on such a tiny system.
func TestSolversExactSystem(t *testing.T) {
	a := [][]float64{{2, -1}, {-1, 2}}
	want := [][]float64{{2.0 / 3, 1.0 / 3}, {1.0 / 3, 2.0 / 3}}
	inv, err := spdInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	sp := &SparseSPD{N: 2, RowOff: []int32{0, 2, 4}, Col: []int32{0, 1, 0, 1}, Val: []float64{2, -1, -1, 2}}
	e := make([]float64, 2)
	for col := 0; col < 2; col++ {
		e[col] = 1
		chol := choleskySolve(l, e)
		cg, _, err := CG(sp, e, 1e-15, 100)
		if err != nil {
			t.Fatal(err)
		}
		e[col] = 0
		for row := 0; row < 2; row++ {
			if d := ulps(inv[row][col], want[row][col]); d > 4 {
				t.Errorf("spdInverse[%d][%d] off by %d ulps", row, col, d)
			}
			if d := ulps(chol[row], want[row][col]); d > 4 {
				t.Errorf("CholeskySolve[%d][%d] off by %d ulps", row, col, d)
			}
			if d := ulps(cg[row], want[row][col]); d > 16 {
				t.Errorf("CG[%d][%d] off by %d ulps", row, col, d)
			}
		}
	}
}

// TestGroundedLaplacianPSD is the PSD/grounding property test: random
// grounded Laplacians must factor (Cholesky succeeds) and have strictly
// positive quadratic forms x'Ax for random nonzero x.
func TestGroundedLaplacianPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(48)
		sp := randomGroundedLaplacian(rng, n)
		if _, err := Cholesky(sp.Dense()); err != nil {
			t.Fatalf("trial %d (n=%d): grounded laplacian not SPD: %v", trial, n, err)
		}
		x := make([]float64, n)
		ax := make([]float64, n)
		for probe := 0; probe < 8; probe++ {
			var norm float64
			for i := range x {
				x[i] = rng.NormFloat64()
				norm += x[i] * x[i]
			}
			if norm == 0 {
				continue
			}
			sp.MulVec(x, ax)
			var quad float64
			for i := range x {
				quad += x[i] * ax[i]
			}
			if !(quad > 0) {
				t.Fatalf("trial %d: quadratic form %v not positive (grounding lost)", trial, quad)
			}
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	// Indefinite: eigenvalues 3 and -1.
	if _, err := Cholesky([][]float64{{1, 2}, {2, 1}}); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite matrix: err = %v, want ErrNotSPD", err)
	}
	if _, err := Cholesky([][]float64{{0}}); !errors.Is(err, ErrNotSPD) {
		t.Errorf("zero matrix: err = %v, want ErrNotSPD", err)
	}
	if _, err := Cholesky([][]float64{{math.NaN()}}); !errors.Is(err, ErrNotSPD) {
		t.Errorf("NaN matrix: err = %v, want ErrNotSPD", err)
	}
}

func TestSPDInverseSingular(t *testing.T) {
	// An ungrounded Laplacian: rows sum to zero, rank n-1.
	sing := [][]float64{{1, -1}, {-1, 1}}
	if _, err := spdInverse(sing); !errors.Is(err, errSingular) {
		t.Errorf("singular matrix: err = %v, want errSingular", err)
	}
}

func TestCGErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	sp := randomGroundedLaplacian(rng, 32)
	b := make([]float64, 32)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	if _, _, err := CG(sp, b, 1e-14, 1); !errors.Is(err, ErrNoConverge) {
		t.Errorf("1-iteration budget: err = %v, want ErrNoConverge", err)
	}
	// Indefinite operator: CG's curvature check must trip.
	bad := &SparseSPD{N: 2, RowOff: []int32{0, 2, 4}, Col: []int32{0, 1, 0, 1}, Val: []float64{1, 2, 2, 1}}
	if _, _, err := CG(bad, []float64{1, -1}, 1e-12, 50); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite operator: err = %v, want ErrNotSPD", err)
	}
}

func TestCGZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	sp := randomGroundedLaplacian(rng, 8)
	x, iters, err := CG(sp, make([]float64, 8), 1e-12, 100)
	if err != nil || iters != 0 {
		t.Fatalf("zero rhs: x=%v iters=%d err=%v, want immediate zero solution", x, iters, err)
	}
	for i, v := range x {
		if v != 0 {
			t.Errorf("x[%d] = %v, want 0", i, v)
		}
	}
}

func TestSparseDenseAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	sp := randomGroundedLaplacian(rng, 12)
	dense := sp.Dense()
	x := make([]float64, 12)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, 12)
	sp.MulVec(x, got)
	for i := 0; i < 12; i++ {
		var want float64
		for j := 0; j < 12; j++ {
			want += dense[i][j] * x[j]
		}
		if math.Abs(got[i]-want) > 1e-12*(1+math.Abs(want)) {
			t.Errorf("MulVec[%d] = %v, dense product %v", i, got[i], want)
		}
	}
}
