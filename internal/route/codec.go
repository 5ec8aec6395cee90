package route

import (
	"anton2/internal/topo"
	"anton2/internal/wire"
)

// State codes the state's checkpoint record: 14 bytes, one per field in
// declaration order, the four booleans sharing a flags byte. It refuses
// enumerations outside their range: a restored packet must not index past a
// table on its next hop.
func (st *State) State(c *wire.Codec) {
	ties := [topo.NumDims]uint8{uint8(st.Ties[0]), uint8(st.Ties[1]), uint8(st.Ties[2])}
	var flags uint8
	for i, f := range [...]bool{st.Crossed, st.Traveled, st.ViaSkip, st.SkipExit} {
		if f {
			flags |= 1 << i
		}
	}
	for _, b := range [...]*uint8{
		(*uint8)(&st.DimOrder[0]), (*uint8)(&st.DimOrder[1]), (*uint8)(&st.DimOrder[2]), &st.Slice,
		&ties[0], &ties[1], &ties[2], (*uint8)(&st.Class),
		(*uint8)(&st.Mode), &st.DimIdx, (*uint8)(&st.Dir), &flags, &st.MVC, &st.TVC,
	} {
		c.Byte(b)
	}
	st.Ties = [topo.NumDims]int8{int8(ties[0]), int8(ties[1]), int8(ties[2])}
	st.Crossed, st.Traveled, st.ViaSkip, st.SkipExit = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
	if d := st.DimOrder; d[0] >= topo.NumDims || d[1] >= topo.NumDims || d[2] >= topo.NumDims ||
		st.Slice >= topo.NumSlices || st.Class >= NumClasses || st.Mode > ModeMeshToEndpoint ||
		st.DimIdx > topo.NumDims || st.Dir >= topo.NumDirections || flags >= 16 {
		c.Fail("route: state field out of range")
	}
}
