package refimpl

import (
	"sort"

	"fivealarms/internal/geom"
	"fivealarms/internal/raster"
)

// TraceContours is the map-based twin of raster.TraceContoursWorkers.
// Boundary edges are collected by a plain row-major scan of every cell,
// kept in per-vertex maps, and traced from the smallest remaining
// vertex via a sorted key list; holes go to the smallest containing
// outer ring by the naive ring walk, recomputing areas per candidate.
// The optimized tracer must reproduce its rings exactly — same rings,
// same vertex order, same hole assignment.
func TraceContours(mask *raster.BitGrid) geom.MultiPolygon {
	g := mask.Geometry
	w := int32(g.NX + 1)

	// out[vertex] holds up to two outgoing edges (checkerboard corners have
	// exactly two).
	out := make(map[int32][2]int32)
	outN := make(map[int32]uint8)
	addEdge := func(from, to int32) {
		e := out[from]
		n := outN[from]
		if n < 2 {
			e[n] = to
			out[from] = e
			outN[from] = n + 1
		}
	}

	// Directed boundary edges with the interior on the left:
	//   bottom edge -> +x, right edge -> +y, top edge -> -x, left edge -> -y.
	// Vertices are grid corners addressed as vy*(NX+1)+vx.
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if !mask.Get(cx, cy) {
				continue
			}
			v00 := int32(cy)*w + int32(cx) // the cell's SW corner
			if !mask.Get(cx, cy-1) {
				addEdge(v00, v00+1)
			}
			if !mask.Get(cx+1, cy) {
				addEdge(v00+1, v00+1+w)
			}
			if !mask.Get(cx, cy+1) {
				addEdge(v00+1+w, v00+w)
			}
			if !mask.Get(cx-1, cy) {
				addEdge(v00+w, v00)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}

	vertexPoint := func(v int32) geom.Point {
		vy := int(v / w)
		vx := int(v % w)
		return geom.Point{X: g.MinX + float64(vx)*g.CellSize, Y: g.MinY + float64(vy)*g.CellSize}
	}

	// Deterministic iteration: trace loops starting from the smallest
	// remaining vertex.
	starts := make([]int32, 0, len(out))
	for v := range out {
		starts = append(starts, v)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	takeEdge := func(from int32, incomingDir int32) (int32, bool) {
		n := outN[from]
		if n == 0 {
			return 0, false
		}
		e := out[from]
		pick := 0
		if n == 2 {
			// Ambiguous (checkerboard) vertex: prefer the left turn relative
			// to the incoming direction so loops never cross themselves.
			// Directions are encoded by the vertex delta: +1 (east), -1
			// (west), +w (north), -w (south). Left of east is north, etc.
			left := map[int32]int32{1: w, w: -1, -1: -w, -w: 1}[incomingDir]
			if e[1]-from == left {
				pick = 1
			}
		}
		to := e[pick]
		// Remove the picked edge.
		if pick == 0 {
			e[0] = e[1]
		}
		outN[from] = n - 1
		out[from] = e
		if n-1 == 0 {
			delete(out, from)
		}
		return to, true
	}

	var outers []geom.Ring
	var holes []geom.Ring
	for _, start := range starts {
		for outN[start] > 0 {
			var ring []geom.Point
			cur := start
			var dir int32
			for {
				next, ok := takeEdge(cur, dir)
				if !ok {
					break
				}
				ring = append(ring, vertexPoint(cur))
				dir = next - cur
				cur = next
				if cur == start {
					break
				}
			}
			if len(ring) < 4 {
				continue
			}
			r := compressCollinear(geom.Ring(ring))
			if !r.Valid() {
				continue
			}
			if r.IsCCW() {
				outers = append(outers, r)
			} else {
				holes = append(holes, r)
			}
		}
	}

	// Assign each hole to the smallest containing outer ring, probing
	// with the hole's centroid (any hole vertex also lies on the outer
	// region's boundary lattice).
	polys := make(geom.MultiPolygon, len(outers))
	for i, o := range outers {
		polys[i] = geom.Polygon{Exterior: o}
	}
	for _, h := range holes {
		bestIdx := -1
		bestArea := 0.0
		probe := h.Centroid()
		for i := range outers {
			if outers[i].ContainsPoint(probe) {
				a := outers[i].Area()
				if bestIdx == -1 || a < bestArea {
					bestIdx = i
					bestArea = a
				}
			}
		}
		if bestIdx >= 0 {
			polys[bestIdx].Holes = append(polys[bestIdx].Holes, h)
		}
	}
	return polys
}

// compressCollinear removes intermediate vertices along straight runs of a
// rectilinear ring.
func compressCollinear(r geom.Ring) geom.Ring {
	n := len(r)
	if n < 3 {
		return r
	}
	out := make(geom.Ring, 0, n)
	for i := 0; i < n; i++ {
		prev := r[(i+n-1)%n]
		cur := r[i]
		next := r[(i+1)%n]
		v1 := cur.Sub(prev)
		v2 := next.Sub(cur)
		if v1.Cross(v2) != 0 { //fivealarms:allow(floateq) exact collinearity test; marching-squares vertices are grid-exact
			out = append(out, cur)
		}
	}
	return out
}
