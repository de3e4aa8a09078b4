package oracle

import "math/bits"

// lineCell is one line-table cell: key is the block number plus one (a
// zero key marks the cell empty, so block 0 needs no reserved value),
// mask the block's dirty bitmask.
type lineCell struct {
	key  uint64
	mask uint64
}

// minLines is the initial line-table size (a power of two).
const minLines = 1 << 10

// lineTable is the engine's set of touched blocks: open-addressed,
// Fibonacci-hashed, linearly probed, load <= 3/4, doubling. Blocks are
// never deleted, so there are no tombstones. It is the shape of
// stackdist's line table, kept apart because that cell carries a slot
// and a tag and its probe is fused into the Record kernel.
type lineTable struct {
	cells []lineCell
	shift uint // 64 - log2(len(cells))
	n     int  // occupied cells = distinct blocks
}

func newLineTable() lineTable {
	return lineTable{
		cells: make([]lineCell, minLines),
		shift: uint(64 - bits.TrailingZeros(minLines)),
	}
}

// find returns the index of key's cell, or of the empty cell where it
// belongs.
func (t *lineTable) find(key uint64) int {
	mask := len(t.cells) - 1
	i := int((key * 0x9E3779B97F4A7C15) >> t.shift)
	for t.cells[i].key != key && t.cells[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// at returns key's cell, inserting it with a zero mask on first touch.
// The pointer is good until the next at.
func (t *lineTable) at(key uint64) *lineCell {
	i := t.find(key)
	if t.cells[i].key == 0 {
		if (t.n+1)*4 > len(t.cells)*3 {
			t.grow()
			i = t.find(key)
		}
		t.n++
		t.cells[i].key = key
	}
	return &t.cells[i]
}

// mask returns key's dirty bitmask, zero for a block never touched.
func (t *lineTable) mask(key uint64) uint64 { return t.cells[t.find(key)].mask }

// grow doubles the table and rehashes every cell.
func (t *lineTable) grow() {
	old := t.cells
	t.cells = make([]lineCell, 2*len(old))
	t.shift--
	for _, c := range old {
		if c.key != 0 {
			t.cells[t.find(c.key)] = c
		}
	}
}
