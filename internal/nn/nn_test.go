package nn

import (
	"math"
	"math/rand"
	"testing"
)

// forward evaluates the network's scalar output through forwardAll, the
// pass Train's backprop runs on.
func forward(n *Network, x []float64) float64 {
	acts := n.forwardAll(x)
	return acts[len(acts)-1][0]
}

func TestForwardKnownWeights(t *testing.T) {
	net := &Network{Layers: []*Layer{
		{In: 2, Out: 2, Act: Tanh, B: []float64{0.1, -0.1},
			W: [][]float64{{0.5, -0.5}, {1, 1}}},
		{In: 2, Out: 1, Act: Identity, B: []float64{0.2},
			W: [][]float64{{2, -1}}},
	}}
	x := []float64{1, 0.5}
	h0 := math.Tanh(0.5*1 - 0.5*0.5 + 0.1)
	h1 := math.Tanh(1*1 + 1*0.5 - 0.1)
	want := 2*h0 - 1*h1 + 0.2
	if got := forward(net, x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Forward = %v, want %v", got, want)
	}
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(rng, []int{2}, nil); err == nil {
		t.Fatal("expected error for too few sizes")
	}
	if _, err := New(rng, []int{2, 3, 1}, []Activation{Tanh}); err == nil {
		t.Fatal("expected error for acts/sizes mismatch")
	}
}

func TestTrainLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := New(rng, []int{2, 8, 1}, []Activation{Tanh, Identity})
	if err != nil {
		t.Fatal(err)
	}
	// y = 0.7 x0 − 0.3 x1
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		x := []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5}
		xs = append(xs, x)
		ys = append(ys, 0.7*x[0]-0.3*x[1])
	}
	loss, err := net.Train(rng, xs, ys, TrainConfig{Epochs: 120, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-3 {
		t.Fatalf("training loss = %v, want < 1e-3", loss)
	}
	// Spot-check generalization.
	for i := 0; i < 20; i++ {
		x := []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5}
		want := 0.7*x[0] - 0.3*x[1]
		if got := forward(net, x); math.Abs(got-want) > 0.1 {
			t.Fatalf("Forward(%v) = %v, want ≈ %v", x, got, want)
		}
	}
}

func TestTrainBCEClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := New(rng, []int{2, 8, 1}, []Activation{ReLU, Sigmoid})
	if err != nil {
		t.Fatal(err)
	}
	// Separable problem: label = 1 iff x0 + x1 > 0.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 600; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		xs = append(xs, x)
		if x[0]+x[1] > 0 {
			ys = append(ys, 1)
		} else {
			ys = append(ys, 0)
		}
	}
	if _, err := net.Train(rng, xs, ys, TrainConfig{Epochs: 60, LR: 0.05, Loss: BCE}); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range xs {
		pred := 0.0
		if forward(net, x) > 0.5 {
			pred = 1
		}
		if pred == ys[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.95 {
		t.Fatalf("classifier accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestTrainRejectsBadData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, _ := New(rng, []int{1, 1}, []Activation{Identity})
	if _, err := net.Train(rng, nil, nil, TrainConfig{}); err == nil {
		t.Fatal("expected error for empty data")
	}
	if _, err := net.Train(rng, [][]float64{{1}}, []float64{1, 2}, TrainConfig{}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}

func TestActivations(t *testing.T) {
	if ReLU.apply(-2) != 0 || ReLU.apply(3) != 3 {
		t.Fatal("relu broken")
	}
	if math.Abs(Sigmoid.apply(0)-0.5) > 1e-12 {
		t.Fatal("sigmoid broken")
	}
	if Identity.apply(1.5) != 1.5 {
		t.Fatal("identity broken")
	}
	if math.Abs(Tanh.derivFromOutput(math.Tanh(0.3))-(1-math.Pow(math.Tanh(0.3), 2))) > 1e-12 {
		t.Fatal("tanh derivative broken")
	}
}
