package models

import (
	"repro/internal/nn"
	"repro/internal/rng"
)

// Build allocates the trainable network the recipe describes, layer for
// layer in Layers order, drawing initial weights (and one Split per dropout
// mask stream) from r: a conv or grouped conv per "conv", a Linear per "fc"
// with one Flatten before the first, and each residual block's layers
// gathered into an nn.Residual whose own activation stands for the block's
// closing ReLU. The input widths come from the feeding layer's replayed
// output shape, so NumParams equals ParamCount by construction.
func (m *ModelSpec) Build(r *rng.Rand) *nn.Network {
	net := nn.NewNetwork(m.Name)
	flat := false
	for i := 0; i < len(m.Layers); i++ {
		l := m.Layers[i]
		if l.Block != "" {
			body, short := nn.NewNetwork(l.Block+".body"), nn.NewNetwork(l.Block+".short")
			for ; i+1 < len(m.Layers) && m.Layers[i+1].Block == l.Block; i++ { // stops on the closing ReLU
				if m.Layers[i].Shortcut {
					short.Add(m.layer(m.Layers[i], r))
				} else {
					body.Add(m.layer(m.Layers[i], r))
				}
			}
			if len(short.Layers) == 0 {
				short = nil // identity
			}
			net.Add(nn.NewResidual(l.Block, body, short))
			continue
		}
		if l.Kind == "fc" && !flat {
			net.Add(nn.NewFlatten())
			flat = true
		}
		net.Add(m.layer(l, r))
	}
	return net
}

// layer allocates the nn layer for one recipe entry.
func (m *ModelSpec) layer(l LayerSpec, r *rng.Rand) nn.Layer {
	c, h, w := m.in(l)
	switch l.Kind {
	case "conv":
		opts := nn.ConvOpts{NoBias: !l.Bias}
		if l.Groups > 1 {
			return nn.NewGroupedConv(l.Name, r, c, l.OutC, l.K, l.Stride, l.Pad, l.Groups, opts)
		}
		return nn.NewConv(l.Name, r, c, l.OutC, l.K, l.Stride, l.Pad, opts)
	case "fc":
		return nn.NewLinear(l.Name, r, c*h*w, l.OutC)
	case "bn":
		return nn.NewBatchNorm(l.Name, c)
	case "lrn":
		n := nn.NewLRN(l.Name)
		n.N = l.K
		return n
	case "relu":
		return nn.NewReLU(l.Name)
	case "dropout":
		return nn.NewDropout(l.Name, r.Split(), 0.5)
	case "pool":
		return nn.NewMaxPool(l.Name, l.K, l.Stride, l.Pad)
	default: // "gap": Replay admits no other kind
		return nn.NewGlobalAvgPool(l.Name)
	}
}

// Factory returns Build as the per-replica constructor core.Config.Model
// and the engine fixtures take: seed → a fresh network with weights drawn
// from rng.New(seed).
func (m *ModelSpec) Factory() func(seed uint64) *nn.Network {
	return func(seed uint64) *nn.Network { return m.Build(rng.New(seed)) }
}
