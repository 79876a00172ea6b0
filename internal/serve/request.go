package serve

// Request schema and validation for the matrix server. A request names
// built-in configurations — cores, schemes, benchmarks — by the same
// names the CLIs use, and the resolver maps them onto the actual config
// structs (whose *content*, not name, feeds the engine's cache keys and
// the response ETag). Unknown names fail fast with the full list of
// valid ones, so the API is discoverable from its error messages.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"rarsim/internal/config"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// maxCells bounds one request's matrix so a single client cannot queue
// an unbounded amount of simulation behind one POST. Bigger studies
// split into several requests and still dedup/cache server-side. It also
// bounds each name list, before any name is looked up.
const maxCells = 4096

// maxBodyBytes bounds a POST /matrix body. A list of maxCells benchmark
// names, the longest valid request, takes well under a tenth of it.
const maxBodyBytes = 1 << 20

// maxCellInsts bounds one cell's warmup plus measured instructions, so a
// single cell cannot occupy a worker indefinitely: 100x the default cell,
// about two minutes of simulation at ~0.8M instructions per second.
const maxCellInsts = 100_000_000

// MatrixRequest is the POST /matrix body. Empty lists select defaults:
// the baseline core, the five headline schemes, and the memory-intensive
// suite. Zero Instructions means the standard 1M-instruction cell;
// zero Warmup means Instructions/5 (the CLI convention). Seed is used
// as given.
type MatrixRequest struct {
	Cores        []string `json:"cores,omitempty"`
	Schemes      []string `json:"schemes,omitempty"`
	Benches      []string `json:"benches,omitempty"`
	Instructions uint64   `json:"instructions,omitempty"`
	Warmup       uint64   `json:"warmup,omitempty"`
	Seed         uint64   `json:"seed,omitempty"`
}

// CellResult is one simulated cell of the response, in request order
// (cores outermost, then schemes, then benches).
type CellResult struct {
	Core   string `json:"core"`
	Scheme string `json:"scheme"`
	Bench  string `json:"bench"`
	// ETag revalidates this cell alone (the response ETag covers the
	// whole matrix).
	ETag string `json:"etag"`

	IPC       float64 `json:"ipc"`
	MLP       float64 `json:"mlp"`
	MPKI      float64 `json:"mpki"`
	AVF       float64 `json:"avf"`
	Cycles    uint64  `json:"cycles"`
	Committed uint64  `json:"committed"`
	TotalABC  uint64  `json:"totalABC"`
	TotalBits uint64  `json:"totalBits"`
}

// MatrixResponse is the POST /matrix success body.
type MatrixResponse struct {
	// SchemaHash identifies the build's struct shapes (the same hash that
	// versions the persistent cache); results from different schema
	// hashes are not comparable.
	SchemaHash string       `json:"schemaHash"`
	ETag       string       `json:"etag"`
	Cells      []CellResult `json:"cells"`
}

// matrixSpec is a resolved, validated request.
type matrixSpec struct {
	cores   []config.Core
	schemes []config.Scheme
	benches []trace.Benchmark
	opt     sim.Options
	keys    []sim.CellKey // cell identities in response order
}

// decodeRequest reads one MatrixRequest JSON value, rejecting unknown
// fields.
func decodeRequest(r io.Reader) (MatrixRequest, error) {
	var req MatrixRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// resolve validates a request and maps its names onto built-in configs.
func resolve(req MatrixRequest) (*matrixSpec, error) {
	// No valid matrix has a list longer than maxCells. Rejecting one
	// before its names are looked up bounds the work a request can cause,
	// and keeps the lists' product from overflowing.
	for _, l := range []struct {
		what  string
		names []string
	}{{"cores", req.Cores}, {"schemes", req.Schemes}, {"benches", req.Benches}} {
		if len(l.names) > maxCells {
			return nil, fmt.Errorf("%d %s exceed the per-request limit of %d cells; split the request", len(l.names), l.what, maxCells)
		}
	}

	spec := &matrixSpec{}

	if len(req.Cores) == 0 {
		spec.cores = []config.Core{config.Baseline()}
	}
	for _, name := range req.Cores {
		c, err := config.CoreByName(name)
		if err != nil {
			return nil, err
		}
		spec.cores = append(spec.cores, c)
	}

	if len(req.Schemes) == 0 {
		spec.schemes = config.Schemes()
	}
	for _, name := range req.Schemes {
		s, err := config.SchemeByName(name)
		if err != nil {
			return nil, fmt.Errorf("unknown scheme %q (valid: %s)", name, strings.Join(schemeNames(), ", "))
		}
		spec.schemes = append(spec.schemes, s)
	}

	if len(req.Benches) == 0 {
		spec.benches = trace.MemoryIntensive()
	}
	for _, name := range req.Benches {
		b, err := trace.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("unknown benchmark %q (valid: %s)", name, strings.Join(trace.Names(), ", "))
		}
		spec.benches = append(spec.benches, b)
	}

	cells := int64(len(spec.cores)) * int64(len(spec.schemes)) * int64(len(spec.benches))
	if cells > maxCells {
		return nil, fmt.Errorf("matrix of %d cells exceeds the per-request limit of %d; split the request", cells, maxCells)
	}

	spec.opt = sim.Options{Instructions: req.Instructions, Warmup: req.Warmup, Seed: req.Seed}
	if spec.opt.Instructions == 0 {
		spec.opt.Instructions = sim.DefaultOptions().Instructions
	}
	if spec.opt.Warmup == 0 {
		spec.opt.Warmup = spec.opt.Instructions / 5
	}
	if spec.opt.Instructions > maxCellInsts || spec.opt.Warmup > maxCellInsts-spec.opt.Instructions {
		return nil, fmt.Errorf("warmup %d + instructions %d exceeds the per-cell limit of %d instructions",
			spec.opt.Warmup, spec.opt.Instructions, maxCellInsts)
	}

	spec.keys = sim.MatrixKeys(spec.cores, spec.schemes, spec.benches, spec.opt)
	return spec, nil
}

// cells assembles the response cells from a completed result set, in
// key order.
func (spec *matrixSpec) cells(rs *sim.ResultSet) ([]CellResult, error) {
	out := make([]CellResult, 0, len(spec.keys))
	for _, k := range spec.keys {
		st, ok := rs.Stats(k.Core, k.Scheme, k.Bench)
		if !ok {
			return nil, fmt.Errorf("result set is missing cell %s", k)
		}
		out = append(out, CellResult{
			Core:      k.Core,
			Scheme:    k.Scheme,
			Bench:     k.Bench,
			ETag:      k.ETag(),
			IPC:       st.IPC(),
			MLP:       st.Mem.MLP(),
			MPKI:      st.MPKI(),
			AVF:       st.AVF(),
			Cycles:    st.Cycles,
			Committed: st.Committed,
			TotalABC:  st.TotalABC,
			TotalBits: st.TotalBits,
		})
	}
	return out, nil
}

func schemeNames() []string {
	out := []string{config.OoO.Name}
	for _, s := range config.RunaheadVariants() {
		out = append(out, s.Name)
	}
	return out
}
