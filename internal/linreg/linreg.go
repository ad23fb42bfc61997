// Package linreg implements the linear regression machinery behind TESLA's
// DC time-series model (paper §3.2): multi-output ridge regression solved
// analytically through the normal equations, with the bias column excluded
// from the L2 penalty. It also provides the plain ordinary-least-squares
// variant used by the Lazic et al. baseline.
//
// TESLA's direct strategy trains one regression per prediction-horizon step,
// which maps onto a single Ridge fit with one output column per step (all
// outputs sharing the same design matrix share one Cholesky factorization,
// which is what makes the (1+N_a+N_d)·L regression problems of the paper
// cheap to solve).
package linreg

import (
	"fmt"

	"tesla/internal/mat"
)

// Model is a fitted multi-output linear map y = Wᵀ·x + b.
type Model struct {
	// Weights is d×m: column j holds the weight vector of output j.
	Weights *mat.Dense
	// Bias has one intercept per output.
	Bias []float64
	// Alpha is the ridge penalty the model was fitted with.
	Alpha float64
}

// Fit solves the ridge regression problem
//
//	min_W ‖X·W − Y‖² + α‖W‖²
//
// with an unpenalized intercept, via the normal equations
// (XᵀX + αI)·W = XᵀY computed on centered data. X is n×d, Y is n×m.
// With α = 0 this is the ordinary-least-squares solution (the paper's
// ASP sub-module uses α=0; ACU, DCS and cooling-energy use α=1).
func Fit(x, y *mat.Dense, alpha float64) (*Model, error) {
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("linreg: X has %d rows, Y has %d", x.Rows, y.Rows)
	}
	if x.Rows == 0 {
		return nil, fmt.Errorf("linreg: empty design matrix")
	}
	if alpha < 0 {
		return nil, fmt.Errorf("linreg: negative ridge penalty %g", alpha)
	}
	n, d, m := x.Rows, x.Cols, y.Cols

	// Center X and Y so the intercept absorbs the means and stays
	// unpenalized.
	xMean := colMeans(x)
	yMean := colMeans(y)
	xc := x.Clone()
	for i := 0; i < n; i++ {
		row := xc.Row(i)
		for j := range row {
			row[j] -= xMean[j]
		}
	}
	yc := y.Clone()
	for i := 0; i < n; i++ {
		row := yc.Row(i)
		for j := range row {
			row[j] -= yMean[j]
		}
	}

	gram := mat.Gram(xc)
	for j := 0; j < d; j++ {
		gram.Data[j*d+j] += alpha
	}
	xty := mat.XtY(xc, yc)
	w, err := mat.SolveSPD(gram, xty)
	if err != nil {
		return nil, fmt.Errorf("linreg: solving normal equations: %w", err)
	}

	bias := make([]float64, m)
	for j := 0; j < m; j++ {
		b := yMean[j]
		for k := 0; k < d; k++ {
			b -= w.Data[k*m+j] * xMean[k]
		}
		bias[j] = b
	}
	return &Model{Weights: w, Bias: bias, Alpha: alpha}, nil
}

// Predict evaluates the model for a single feature vector, returning one
// value per output.
func (m *Model) Predict(x []float64) []float64 {
	if len(x) != m.Weights.Rows {
		panic(fmt.Sprintf("linreg: feature length %d, model expects %d", len(x), m.Weights.Rows))
	}
	return m.PredictInto(x, nil)
}

// PredictInto is Predict with a caller-provided output buffer.
func (m *Model) PredictInto(x, out []float64) []float64 {
	if cap(out) < len(m.Bias) {
		out = make([]float64, len(m.Bias))
	}
	out = out[:len(m.Bias)]
	copy(out, m.Bias)
	m.AddTerms(out, 0, x)
	return out
}

// AddTerms adds the contribution of features first, first+1, … (values x)
// to out, which holds the bias and whatever terms the caller summed before.
// Zero-valued features are skipped, exactly as PredictInto skips them, so
// summing a feature vector block by block reproduces PredictInto up to the
// order in which the blocks are added.
//
// Four weight rows are applied per pass over out, which halves the loads and
// stores of out against one row per pass. Each out[j] still receives its
// terms one at a time in feature order, so the result is bit-identical to
// the row-at-a-time loop.
func (m *Model) AddTerms(out []float64, first int, x []float64) {
	out = out[:len(m.Bias)]
	k := 0
	for ; k+4 <= len(x); k += 4 {
		x0, x1, x2, x3 := x[k], x[k+1], x[k+2], x[k+3]
		if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
			m.addRows(out, first+k, x[k:k+4])
			continue
		}
		w0 := m.Weights.Row(first + k)
		w1 := m.Weights.Row(first + k + 1)[:len(w0)]
		w2 := m.Weights.Row(first + k + 2)[:len(w0)]
		w3 := m.Weights.Row(first + k + 3)[:len(w0)]
		o := out[:len(w0)]
		for j, v := range w0 {
			o[j] = o[j] + x0*v + x1*w1[j] + x2*w2[j] + x3*w3[j]
		}
	}
	m.addRows(out, first+k, x[k:])
}

// addRows is AddTerms one weight row at a time.
func (m *Model) addRows(out []float64, first int, x []float64) {
	for k, xv := range x {
		if xv == 0 {
			continue
		}
		wrow := m.Weights.Row(first + k)
		o := out[:len(wrow)]
		for j, wv := range wrow {
			o[j] += xv * wv
		}
	}
}

// PredictBatch evaluates the model over every row of x, returning n×m.
func (m *Model) PredictBatch(x *mat.Dense) *mat.Dense {
	out := mat.New(x.Rows, len(m.Bias))
	for i := 0; i < x.Rows; i++ {
		m.PredictInto(x.Row(i), out.Row(i))
	}
	return out
}

// NumOutputs returns the output dimensionality.
func (m *Model) NumOutputs() int { return len(m.Bias) }

// NumFeatures returns the input dimensionality.
func (m *Model) NumFeatures() int { return m.Weights.Rows }

func colMeans(a *mat.Dense) []float64 {
	out := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(a.Rows)
	}
	return out
}
