package serve

// Request schema and validation for the matrix server. A request names
// built-in configurations — cores, schemes, benchmarks — by the same
// names the CLIs use, and the resolver maps them onto the actual config
// structs (whose *content*, not name, feeds the engine's cache keys and
// the response ETag). Unknown names fail fast with the full list of
// valid ones, so the API is discoverable from its error messages.

import (
	"fmt"
	"strings"

	"rarsim/internal/config"
	"rarsim/internal/sim"
	"rarsim/internal/trace"
)

// maxCells bounds one request's matrix so a single client cannot queue
// an unbounded amount of simulation behind one POST. Bigger studies
// split into several requests and still dedup/cache server-side.
const maxCells = 4096

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

// resolve validates a request and maps its names onto built-in configs.
func resolve(req MatrixRequest) (*matrixSpec, error) {
	spec := &matrixSpec{}

	if len(req.Cores) == 0 {
		spec.cores = []config.Core{config.Baseline()}
	}
	for _, name := range req.Cores {
		c, err := coreByName(name)
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

	cells := len(spec.cores) * len(spec.schemes) * len(spec.benches)
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

	spec.keys = make([]sim.CellKey, 0, cells)
	for _, c := range spec.cores {
		for _, s := range spec.schemes {
			for _, b := range spec.benches {
				spec.keys = append(spec.keys, sim.KeyFor(c, s, b, spec.opt))
			}
		}
	}
	return spec, nil
}

// cells assembles the response cells from a completed result set, in the
// same order the keys were enumerated.
func (spec *matrixSpec) cells(rs *sim.ResultSet) ([]CellResult, error) {
	out := make([]CellResult, 0, len(spec.keys))
	i := 0
	for _, c := range spec.cores {
		for _, s := range spec.schemes {
			for _, b := range spec.benches {
				st, ok := rs.Stats(c.Name, s.Name, b.Name)
				if !ok {
					return nil, fmt.Errorf("result set is missing cell %s/%s/%s", c.Name, s.Name, b.Name)
				}
				out = append(out, CellResult{
					Core:      c.Name,
					Scheme:    s.Name,
					Bench:     b.Name,
					ETag:      spec.keys[i].ETag(),
					IPC:       st.IPC(),
					MLP:       st.Mem.MLP(),
					MPKI:      st.MPKI(),
					AVF:       st.AVF(),
					Cycles:    st.Cycles,
					Committed: st.Committed,
					TotalABC:  st.TotalABC,
					TotalBits: st.TotalBits,
				})
				i++
			}
		}
	}
	return out, nil
}

// coreByName maps a core configuration name the way cmd/rarsim does:
// "baseline" plus the four Table I scaling configurations.
func coreByName(name string) (config.Core, error) {
	if name == "baseline" {
		return config.Baseline(), nil
	}
	for _, c := range config.ScaledCores() {
		if c.Name == name {
			return c, nil
		}
	}
	return config.Core{}, fmt.Errorf("unknown core %q (valid: %s)", name, strings.Join(coreNames(), ", "))
}

func coreNames() []string {
	out := []string{"baseline"}
	for _, c := range config.ScaledCores() {
		out = append(out, c.Name)
	}
	return out
}

func schemeNames() []string {
	out := []string{config.OoO.Name}
	for _, s := range config.RunaheadVariants() {
		out = append(out, s.Name)
	}
	return out
}
