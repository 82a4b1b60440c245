package opt

import (
	"repro/internal/kernel"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// momentum is the state and the update SGD and LARS share: one velocity
// buffer per parameter and the heavy-ball step
//
//	v ← m·v + r·(g + λw)
//	w ← w − v
//
// at a per-parameter rate r. The rules differ only in the r and λ they pass.
type momentum struct {
	params   []*nn.Param
	velocity []*tensor.Tensor
}

func newMomentum(params []*nn.Param) momentum {
	s := momentum{params: params, velocity: make([]*tensor.Tensor, len(params))}
	for i, p := range params {
		s.velocity[i] = tensor.New(p.W.Shape...)
	}
	return s
}

// update applies the step to parameter i with kernel.Momentum. decay=false
// drops the λw term outright rather than adding 0·w, which would turn a −0
// gradient into +0: LARS's NoDecay parameters take that path, SGD always
// adds the term (testdata/update.golden pins both).
func (s *momentum) update(i int, m, r, lambda float32, decay bool) {
	kernel.Momentum(s.velocity[i].Data, s.params[i].W.Data, s.params[i].G.Data, m, r, lambda, decay)
}

// SGDConfig configures momentum SGD.
type SGDConfig struct {
	Momentum    float64 // typically 0.9 (Tables 5 and 7)
	WeightDecay float64 // typically 0.0005 for AlexNet, 0.0001 for ResNet
}

// SGD is Caffe-style momentum SGD with L2 weight decay, the momentum update
// at r = lr. Decay is skipped (λ = 0) for parameters marked NoDecay
// (biases, BN affine).
type SGD struct {
	momentum
	cfg SGDConfig
}

// NewSGD builds a momentum-SGD optimizer over params.
func NewSGD(params []*nn.Param, cfg SGDConfig) *SGD {
	return &SGD{momentum: newMomentum(params), cfg: cfg}
}

// Step applies one update at the global learning rate lr. The caller zeroes
// the gradients afterwards.
func (s *SGD) Step(lr float64) {
	for i, p := range s.params {
		wd := float32(s.cfg.WeightDecay)
		if p.NoDecay {
			wd = 0
		}
		s.update(i, float32(s.cfg.Momentum), float32(lr), wd, true)
	}
}

// Velocity exposes the momentum buffer for tests.
func (s *SGD) Velocity(i int) *tensor.Tensor { return s.velocity[i] }
