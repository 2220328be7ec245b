// Package nn is a minimal dense neural-network library used to produce the
// trained models the paper monitors: the MLP-d regression network (three
// tanh hidden layers) and the intrusion-detection DNN (five ReLU hidden
// layers with a sigmoid output). It supports forward evaluation,
// backpropagation, and SGD training with MSE or binary-cross-entropy loss —
// enough to reproduce §4.2's model-preparation step entirely in-repo.
package nn

import (
	"errors"
	"math"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation uint8

// Supported activations.
const (
	Identity Activation = iota
	Tanh
	ReLU
	Sigmoid
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		return math.Max(x, 0)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	}
	return x
}

// derivFromOutput returns σ'(z) expressed through y = σ(z).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	}
	return 1
}

// Layer is a dense layer: out = act(W·in + b).
type Layer struct {
	W   [][]float64 // [out][in]
	B   []float64
	Act Activation
	In  int
	Out int
}

// Network is a feed-forward stack of dense layers with a single output.
type Network struct {
	Layers []*Layer
}

// New builds a network with the given layer sizes and activations.
// sizes has len(layers)+1 entries (input size first); acts has one entry per
// layer. Weights use scaled Xavier initialization from rng.
func New(rng *rand.Rand, sizes []int, acts []Activation) (*Network, error) {
	if len(sizes) < 2 || len(acts) != len(sizes)-1 {
		return nil, errors.New("nn: sizes/acts mismatch")
	}
	net := &Network{}
	for l := 0; l < len(acts); l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2.0 / float64(in+out))
		layer := &Layer{In: in, Out: out, Act: acts[l], B: make([]float64, out)}
		layer.W = make([][]float64, out)
		for i := range layer.W {
			layer.W[i] = make([]float64, in)
			for j := range layer.W[i] {
				layer.W[i][j] = rng.NormFloat64() * scale
			}
		}
		net.Layers = append(net.Layers, layer)
	}
	return net, nil
}

// InputDim returns the network's input size.
func (n *Network) InputDim() int { return n.Layers[0].In }

// forwardAll evaluates the network keeping every layer's activations for
// backprop; returns them input-first.
func (n *Network) forwardAll(x []float64) [][]float64 {
	acts := make([][]float64, 0, len(n.Layers)+1)
	acts = append(acts, x)
	a := x
	for _, l := range n.Layers {
		next := make([]float64, l.Out)
		for i := 0; i < l.Out; i++ {
			s := l.B[i]
			for j := 0; j < l.In; j++ {
				s += l.W[i][j] * a[j]
			}
			next[i] = l.Act.apply(s)
		}
		acts = append(acts, next)
		a = next
	}
	return acts
}

// Loss selects the training objective.
type Loss uint8

// Supported losses. BCE expects targets in {0, 1} and a sigmoid output.
const (
	MSE Loss = iota
	BCE
)

// TrainConfig controls SGD.
type TrainConfig struct {
	Epochs   int
	LR       float64
	Loss     Loss
	BatchLog int // unused hook for verbose progress; 0 = silent
}

// Train runs plain SGD over (xs, ys) pairs, in order, for the configured
// number of epochs. It returns the final mean loss.
func (n *Network) Train(rng *rand.Rand, xs [][]float64, ys []float64, cfg TrainConfig) (float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0, errors.New("nn: bad training data")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.01
	}
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	var last float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sum float64
		for _, idx := range order {
			sum += n.step(xs[idx], ys[idx], cfg)
		}
		last = sum / float64(len(xs))
	}
	return last, nil
}

// step performs one SGD update and returns the sample loss.
func (n *Network) step(x []float64, y float64, cfg TrainConfig) float64 {
	acts := n.forwardAll(x)
	out := acts[len(acts)-1][0]

	var loss, dOut float64
	switch cfg.Loss {
	case BCE:
		const eps = 1e-9
		p := math.Min(math.Max(out, eps), 1-eps)
		loss = -(y*math.Log(p) + (1-y)*math.Log(1-p))
		// With a sigmoid output, dL/dz = p − y; fold the activation
		// derivative out by dividing, then multiply back uniformly below.
		dOut = (p - y) / n.Layers[len(n.Layers)-1].Act.derivFromOutput(p)
	default:
		diff := out - y
		loss = diff * diff
		dOut = 2 * diff
	}

	// Backprop: delta starts as dL/da for the output layer.
	delta := []float64{dOut}
	for l := len(n.Layers) - 1; l >= 0; l-- {
		layer := n.Layers[l]
		in := acts[l]
		outAct := acts[l+1]
		// dL/dz = dL/da ⊙ σ'(z)
		dz := make([]float64, layer.Out)
		for i := range dz {
			dz[i] = delta[i] * layer.Act.derivFromOutput(outAct[i])
		}
		// propagate to previous activations before touching weights
		prev := make([]float64, layer.In)
		for j := 0; j < layer.In; j++ {
			var s float64
			for i := 0; i < layer.Out; i++ {
				s += layer.W[i][j] * dz[i]
			}
			prev[j] = s
		}
		for i := 0; i < layer.Out; i++ {
			g := cfg.LR * dz[i]
			layer.B[i] -= g
			row := layer.W[i]
			for j := 0; j < layer.In; j++ {
				row[j] -= g * in[j]
			}
		}
		delta = prev
	}
	return loss
}
