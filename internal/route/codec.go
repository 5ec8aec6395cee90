package route

import (
	"anton2/internal/topo"
	"anton2/internal/wire"
)

// AppendTo appends the state's checkpoint record: 14 bytes, one per field in
// declaration order, the four booleans sharing a flags byte.
func (st *State) AppendTo(b []byte) []byte {
	var flags uint8
	for i, f := range [...]bool{st.Crossed, st.Traveled, st.ViaSkip, st.SkipExit} {
		if f {
			flags |= 1 << i
		}
	}
	return append(b,
		uint8(st.DimOrder[0]), uint8(st.DimOrder[1]), uint8(st.DimOrder[2]), st.Slice,
		uint8(st.Ties[0]), uint8(st.Ties[1]), uint8(st.Ties[2]), uint8(st.Class),
		uint8(st.Mode), st.DimIdx, uint8(st.Dir), flags, st.MVC, st.TVC)
}

// ReadFrom reads a record AppendTo wrote, refusing enumerations outside their
// range: a restored packet must not index past a table on its next hop.
func (st *State) ReadFrom(r *wire.Reader) {
	p := r.Next(14)
	if p == nil {
		return
	}
	*st = State{
		DimOrder: topo.DimOrder{topo.Dim(p[0]), topo.Dim(p[1]), topo.Dim(p[2])},
		Slice:    p[3],
		Ties:     [topo.NumDims]int8{int8(p[4]), int8(p[5]), int8(p[6])},
		Class:    Class(p[7]),
		Mode:     Mode(p[8]), DimIdx: p[9], Dir: topo.Direction(p[10]),
		Crossed: p[11]&1 != 0, Traveled: p[11]&2 != 0, ViaSkip: p[11]&4 != 0, SkipExit: p[11]&8 != 0,
		MVC: p[12], TVC: p[13],
	}
	if p[0] >= topo.NumDims || p[1] >= topo.NumDims || p[2] >= topo.NumDims || p[3] >= topo.NumSlices ||
		p[7] >= NumClasses || st.Mode > ModeMeshToEndpoint || p[9] > topo.NumDims ||
		p[10] >= topo.NumDirections || p[11] >= 16 {
		r.Fail("route: state field out of range")
	}
}
