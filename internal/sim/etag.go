package sim

// HTTP entity tags for simulation results. Simulations are deterministic
// in their CellKey and the build's struct schema — that is the exact
// soundness condition the memo cache already rests on — so a strong ETag
// can be derived purely from the *request identity*, before any cell is
// computed: equal tags imply byte-identical result matrices. That lets
// the matrix server answer If-None-Match revalidations with 304 without
// touching the cache, the pool, or the simulator, even for cells it has
// never simulated.

import "fmt"

// ETag returns a strong entity tag identifying this cell's result
// content: the canonical hash of the engine schema hash (the build's
// struct shapes, which decide the result's JSON form) and the full cell
// key (names, options and the content hash of core config, scheme and
// benchmark).
func (k CellKey) ETag() string {
	h := newFNV64()
	h.str(SchemaHash())
	h.ptr(&k)
	return quoteTag(h)
}

// MatrixETag combines the cell keys of one matrix request, in request
// order, into a single strong entity tag for the whole response: the
// canonical hash of the schema hash and the key list.
func MatrixETag(keys []CellKey) string {
	h := newFNV64()
	h.str(SchemaHash())
	h.ptr(&keys)
	return quoteTag(h)
}

func quoteTag(h fnv64) string { return fmt.Sprintf("\"%016x\"", uint64(h)) }
