package core

import (
	"math"
	"sort"

	"repro/internal/dnn"
	"repro/internal/units"
)

// Prediction intervals. A key selling point of linear regression over black
// boxes is explainability (§7: "keep using the linear regression model
// maintains the best explainability and interpretability"); attaching an
// uncertainty to every prediction makes that operational. Each kernel
// group's regression carries its residual RMSE; a network-level prediction
// aggregates those residuals.
//
// Aggregation treats residuals of the *same kernel name* as perfectly
// correlated (the same implementation mispredicts the same way every time it
// recurs in a network — the dominant error structure we observe) and
// residuals of different kernels as independent:
//
//	margin² = Σ_over kernel names (count · RMSE_group)²
//
// The resulting ±2·margin band is an approximate 95 % interval for the
// network's summed kernel time.

// Interval is a prediction with its one-sigma margin.
type Interval struct {
	// Predicted is the point prediction, seconds.
	Predicted units.Seconds
	// Margin is the one-sigma uncertainty, seconds.
	Margin units.Seconds
}

// Lo and Hi bound the approximate 95 % (±2σ) interval; Lo is floored at 0.
func (iv Interval) Lo() units.Seconds {
	lo := iv.Predicted - 2*iv.Margin
	if lo < 0 {
		return 0
	}
	return lo
}

// Hi returns the upper ±2σ bound.
func (iv Interval) Hi() units.Seconds { return iv.Predicted + 2*iv.Margin }

// Contains reports whether a measured value falls inside the ±2σ band.
func (iv Interval) Contains(measured units.Seconds) bool {
	return measured >= iv.Lo() && measured <= iv.Hi()
}

// groupRMSE returns the residual RMSE attached to the kernel's model, or 0
// when the kernel resolves through a fallback tier (fallback uncertainty is
// not tracked).
func (m *KWModel) groupRMSE(kernel string) float64 {
	if gi, ok := m.GroupOf[kernel]; ok {
		return m.Groups[gi].RMSE
	}
	return 0
}

// PredictNetworkInterval predicts one batch's kernel-time total with an
// uncertainty margin. The point value is PredictNetwork's, read from the
// compiled plan; the margin aggregates over the kernel names the network
// dispatches at the batch, which shape inference (mutating n) resolves.
func (m *KWModel) PredictNetworkInterval(n *dnn.Network, batch int) (Interval, error) {
	pred, err := m.PredictNetwork(n, batch)
	if err != nil {
		return Interval{}, err
	}
	if err := n.Infer(batch); err != nil {
		return Interval{}, err
	}
	counts := map[string]int{}
	for _, l := range n.Layers {
		for _, k := range m.kernelsForLayer(l) {
			counts[k.Name]++
		}
	}
	return Interval{Predicted: pred, Margin: m.aggregateMargin(counts)}, nil
}

// aggregateMargin combines per-kernel-name counts into the network margin.
// The variance sum is commutative-safe only in exact arithmetic; iterating
// the kernel names in sorted order keeps the float result identical across
// runs (the determinism contract serialized reports rely on).
func (m *KWModel) aggregateMargin(counts map[string]int) units.Seconds {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	var variance float64
	for _, name := range names {
		contrib := float64(counts[name]) * m.groupRMSE(name)
		variance += contrib * contrib
	}
	return units.Seconds(math.Sqrt(variance))
}
