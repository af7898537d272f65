package brsmn

import "fmt"

// PaddedNetwork adapts the BRSMN to any port count: a p-port switch is
// embedded in the next power-of-two network, with the extra ports
// permanently idle. The paper's construction requires n = 2^m; padding
// is the standard deployment answer, costing at most a factor-2 size
// overshoot.
type PaddedNetwork struct {
	inner *Network
	ports int
}

// NewPadded returns a multicast network with exactly `ports` usable
// ports (ports >= 2).
func NewPadded(ports int) (*PaddedNetwork, error) {
	if ports < 2 {
		return nil, fmt.Errorf("brsmn: %d ports out of range", ports)
	}
	n := 2
	for n < ports {
		n *= 2
	}
	inner, err := New(n)
	if err != nil {
		return nil, err
	}
	return &PaddedNetwork{inner: inner, ports: ports}, nil
}

// Ports returns the usable port count.
func (p *PaddedNetwork) Ports() int { return p.ports }

// FabricSize returns the embedded power-of-two network size.
func (p *PaddedNetwork) FabricSize() int { return p.inner.N() }

// Route realizes a multicast assignment given as per-input destination
// sets over the usable ports; sources and destinations must be below
// Ports(). It returns the deliveries for the usable outputs only.
func (p *PaddedNetwork) Route(dests [][]int) ([]Delivery, error) {
	if len(dests) > p.ports {
		return nil, fmt.Errorf("brsmn: %d destination sets for %d ports", len(dests), p.ports)
	}
	padded := make([][]int, p.inner.N())
	for i, ds := range dests {
		for _, d := range ds {
			if d < 0 || d >= p.ports {
				return nil, fmt.Errorf("brsmn: input %d has destination %d outside the %d usable ports", i, d, p.ports)
			}
		}
		padded[i] = ds
	}
	a, err := NewAssignment(p.inner.N(), padded)
	if err != nil {
		return nil, err
	}
	res, err := p.inner.Route(a)
	if err != nil {
		return nil, err
	}
	return res.Deliveries[:p.ports], nil
}
