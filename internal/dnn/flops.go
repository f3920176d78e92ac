package dnn

import (
	"fmt"
	"math"
)

// FLOPs conventions follow the paper (§2.2): FLOPs counts floating-point
// *multiplications* required by the theoretical algorithm, as produced by
// PyTorch-OpCounter. For a convolution this is N·Cout·H'·W'·(Cin/g)·Kh·Kw;
// elementwise and normalization layers count one (or a few) operations per
// element so that the layer-wise model has a non-degenerate regressor for
// every layer type.

// Per-element operation weights for non-GEMM layers. These are fixed
// conventions, not tuned values: they only scale the x-axis of each layer
// type's regression line.
const (
	flopsPerElemBN      = 2 // scale + shift
	flopsPerElemLN      = 4 // mean/var accumulate + normalize + affine
	flopsPerElemAct     = 1
	flopsPerElemGELU    = 4 // tanh-approximation polynomial
	flopsPerElemSoftmax = 3 // exp + sum + divide
	flopsPerElemAdd     = 1
)

// LayerFLOPs returns the theoretical FLOPs of a layer at its inferred shapes.
// The network must have been inferred (Network.Infer) first; layers with
// un-inferred shapes return 0. A count that does not fit in int64
// saturates at math.MaxInt64, which Infer rejects.
func LayerFLOPs(l *Layer) int64 {
	if len(l.OutShape) == 0 {
		return 0
	}
	switch l.Kind {
	case KindConv2D:
		g := l.Groups
		if g == 0 {
			g = 1
		}
		// N · Cout · H' · W' · (Cin/g) · Kh · Kw
		out := l.OutShape
		return prod(int64(out[0]), int64(out[1]), int64(out[2]), int64(out[3]),
			int64(l.Cin/g), int64(l.KH), int64(l.KW))

	case KindLinear:
		// Every position in the output multiplies an InFeatures-long vector.
		return mulSat(l.OutShape.Numel(), int64(l.InFeatures))

	case KindBatchNorm:
		return mulSat(l.OutShape.Numel(), flopsPerElemBN)

	case KindLayerNorm:
		return mulSat(l.OutShape.Numel(), flopsPerElemLN)

	case KindReLU, KindReLU6, KindSigmoid:
		return mulSat(l.OutShape.Numel(), flopsPerElemAct)

	case KindGELU:
		return mulSat(l.OutShape.Numel(), flopsPerElemGELU)

	case KindSoftmax:
		return mulSat(l.OutShape.Numel(), flopsPerElemSoftmax)

	case KindMaxPool2D, KindAvgPool2D:
		// One comparison/accumulate per window element per output element.
		return prod(l.OutShape.Numel(), int64(l.KH), int64(l.KW))

	case KindGlobalAvgPool:
		// One accumulate per input element.
		return l.InShape.Numel()

	case KindAdd:
		return mulSat(l.OutShape.Numel(), flopsPerElemAdd)

	case KindMatMul:
		// Per head: (T × d) · (d × T) or (T × T) · (T × d); both cost T·T·d
		// multiplications, d = D/heads.
		a := l.InShapes[0]
		n, t := int64(a[0]), int64(a[1])
		var d int64
		if l.TransposeB {
			d = int64(a[2]) / int64(l.Heads)
		} else {
			d = int64(l.InShapes[1][2]) / int64(l.Heads)
		}
		return prod(n, int64(l.Heads), t, t, d)

	case KindConcat, KindFlatten, KindDropout, KindChannelShuffle,
		KindEmbedding, KindReshapeTokens, KindIdentity:
		// Data-movement-only layers: zero arithmetic by the thop convention.
		return 0
	}
	return 0
}

// TotalFLOPs returns the sum of LayerFLOPs over the whole network at its
// inferred batch size. It returns an error if shapes are not inferred.
func (n *Network) TotalFLOPs() (int64, error) {
	if n.batch == 0 {
		return 0, fmt.Errorf("dnn: network %q: TotalFLOPs requires Infer", n.Name)
	}
	var total int64
	for _, l := range n.Layers {
		f := LayerFLOPs(l)
		if f > math.MaxInt64-total {
			return 0, fmt.Errorf("dnn: network %q: total FLOPs overflow int64", n.Name)
		}
		total += f
	}
	return total, nil
}

// prod multiplies the factors left to right through mulSat.
func prod(factors ...int64) int64 {
	p := int64(1)
	for _, f := range factors {
		p = mulSat(p, f)
	}
	return p
}

// FLOPsAt is a convenience that infers the network at the given batch size
// and returns the total FLOPs.
func (n *Network) FLOPsAt(batch int) (int64, error) {
	if err := n.Infer(batch); err != nil {
		return 0, err
	}
	return n.TotalFLOPs()
}
