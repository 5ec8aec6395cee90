package topo

import "fmt"

// Machine combines a torus shape with the per-node chip layout and defines
// the global directed-channel identifier space used by the routing, load
// calculation, and deadlock analysis packages.
//
// Channel ids are laid out as:
//
//	[0, N*I)         intra-node channels: node*I + chipChan
//	[N*I, N*I+N*12)  torus channels: N*I + node*12 + adapterIndex
//
// where N is the node count and I the intra-channel count per chip. A torus
// channel is identified by its *sending* node and adapter: the directed
// channel leaving node n through adapter (d, s) arrives at the (opposite(d),
// s) adapter of n's d-neighbor.
type Machine struct {
	Shape TorusShape
	Chip  *Chip
}

// NewMachine builds a machine description for the given torus shape using
// the default Figure 1 chip.
func NewMachine(shape TorusShape) (*Machine, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	return &Machine{Shape: shape, Chip: DefaultChip()}, nil
}

// MustMachine is NewMachine for known-good shapes; it panics on error.
func MustMachine(shape TorusShape) *Machine {
	m, err := NewMachine(shape)
	if err != nil {
		panic(err)
	}
	return m
}

// NumNodes returns the machine's node count.
func (m *Machine) NumNodes() int { return m.Shape.NumNodes() }

// NumIntraChans returns the per-node intra channel count.
func (m *Machine) NumIntraChans() int { return len(m.Chip.IntraChans) }

// NumChannels returns the total directed channel count.
func (m *Machine) NumChannels() int {
	n := m.NumNodes()
	return n*m.NumIntraChans() + n*NumChannelAdapters
}

// IntraChanID returns the global id of a chip-local channel on a node.
func (m *Machine) IntraChanID(node int, chipChan int) int {
	return node*m.NumIntraChans() + chipChan
}

// TorusChanID returns the global id of the torus channel leaving node
// through adapter (dir, slice).
func (m *Machine) TorusChanID(node int, dir Direction, slice int) int {
	return m.NumNodes()*m.NumIntraChans() + node*NumChannelAdapters + AdapterID{Dir: dir, Slice: slice}.Index()
}

// IsTorusChan reports whether a global channel id names a torus channel.
func (m *Machine) IsTorusChan(id int) bool {
	return id >= m.NumNodes()*m.NumIntraChans()
}

// TorusChanOf decomposes a torus channel id into its sending node and
// adapter.
func (m *Machine) TorusChanOf(id int) (node int, adapter AdapterID) {
	id -= m.NumNodes() * m.NumIntraChans()
	return id / NumChannelAdapters, AdapterByIndex(id % NumChannelAdapters)
}

// IntraChanOf decomposes an intra channel id into its node and chip channel.
func (m *Machine) IntraChanOf(id int) (node int, ch *IntraChan) {
	node = id / m.NumIntraChans()
	return node, &m.Chip.IntraChans[id%m.NumIntraChans()]
}

// ChanGroup returns the deadlock group of any global channel.
func (m *Machine) ChanGroup(id int) Group {
	if m.IsTorusChan(id) {
		return GroupT
	}
	_, ch := m.IntraChanOf(id)
	return ch.Group
}

// ChanName renders a global channel id for diagnostics.
func (m *Machine) ChanName(id int) string {
	if m.IsTorusChan(id) {
		node, ad := m.TorusChanOf(id)
		return fmt.Sprintf("n%d:torus:%s", node, ad)
	}
	node, ch := m.IntraChanOf(id)
	return fmt.Sprintf("n%d:%s", node, ch.Name)
}

// TorusDest returns the node and adapter at which the given torus channel
// arrives.
func (m *Machine) TorusDest(node int, dir Direction, slice int) (int, AdapterID) {
	dst := m.Shape.Neighbor(m.Shape.Coord(node), dir)
	return m.Shape.NodeID(dst), AdapterID{Dir: dir.Opposite(), Slice: slice}
}

// NodeEp identifies a network endpoint: an endpoint adapter on a node.
type NodeEp struct {
	Node int // dense node id
	Ep   int // endpoint adapter id within the chip
}

func (ne NodeEp) String() string { return fmt.Sprintf("n%d.E%d", ne.Node, ne.Ep) }

// NumEndpointsTotal returns the machine-wide endpoint count.
func (m *Machine) NumEndpointsTotal() int { return m.NumNodes() * NumEndpoints }

// EndpointIndex flattens a NodeEp to a dense index.
func (m *Machine) EndpointIndex(ne NodeEp) int { return ne.Node*NumEndpoints + ne.Ep }
