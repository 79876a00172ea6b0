package serve

import (
	"bytes"
	"math/bits"
	"testing"
)

// FuzzResolve feeds arbitrary bytes to the /matrix front door: decoded
// the way the handler decodes a body, then resolved. Neither step may
// panic, and an accepted request must respect the server's bounds: one
// key per cell of the lists' product, at most maxCells cells, and at
// most maxCellInsts warmup plus measured instructions per cell. The seed
// corpus is in testdata/fuzz/FuzzResolve.
func FuzzResolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		spec, err := resolve(req)
		if err != nil {
			return
		}
		cells := len(spec.cores) * len(spec.schemes) * len(spec.benches)
		if len(spec.keys) != cells || cells > maxCells {
			t.Fatalf("accepted %d keys for a %d×%d×%d matrix (limit %d cells)",
				len(spec.keys), len(spec.cores), len(spec.schemes), len(spec.benches), maxCells)
		}
		insts, carry := bits.Add64(spec.opt.Warmup, spec.opt.Instructions, 0)
		if carry != 0 || insts > maxCellInsts {
			t.Fatalf("accepted warmup %d + instructions %d (limit %d)", spec.opt.Warmup, spec.opt.Instructions, maxCellInsts)
		}
	})
}
