package rarsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"rarsim"
)

// injectionGolden pins whole fault-injection campaigns: which uop every
// strike lands on (the IQ slot order, the ROB/LQ/SQ walks, the register
// file) and how its fate resolves. Nothing else in the suite covers
// strike placement, so a refactor of any structure the injector lists
// must reproduce these campaigns byte for byte. The hash is over the
// JSON encoding of the whole InjectionResult: every sample's cycle,
// structure, slot and outcome, the ledger AVF and the run's Stats.
// soplex is there because PRE enters runahead on it within the run (on
// mcf and x264 it never does), so an IQ strike can find the ROB's
// waiting uops, which commit, beside the PRDQ's, which are squashed.
//
// To re-record after an intended change, run the test and copy the
// "got" lines it prints.
var injectionGolden = []struct {
	scheme, bench                      string
	corrupt, squashed, masked, pending int
	sha256                             string
}{
	{"OoO", "mcf", 305, 460, 1234, 1, "0de90575ffce718285dff07568874f0590a71646794dc2e3f634dfb05e805b90"},
	{"OoO", "x264", 602, 0, 1398, 0, "efeb12f822d308878a67fbb009a8d11f7c54941da0d12538a56aaad4fb70cc7a"},
	{"OoO", "soplex", 517, 464, 1019, 0, "27bd70a2a0b1168fa1a7f2633c9936b3eb9f0654e85ce3a5b2977788ce8c6a01"},
	{"FLUSH", "mcf", 21, 278, 1701, 0, "21e57fd1f3bc46c5fb63437acc7b54a01ec27fdac58e71d54e4744757f1f086e"},
	{"FLUSH", "x264", 71, 36, 1893, 0, "e58bd56d3145e0c4c9b54ce2cf9eb7b368e9247287794d799aaccfa06f92f01c"},
	{"FLUSH", "soplex", 15, 44, 1941, 0, "bd33f434eeb4c5b8abdd0c9a7de7136095096bd844eba1a11830b2b46d942284"},
	{"PRE", "mcf", 305, 460, 1234, 1, "91a5ac6ed061202a75bcace555f18cd4058380c47843d114d5b5b24c96f893f5"},
	{"PRE", "x264", 602, 0, 1398, 0, "e0a2360690df2f21150467e22361b313dca165049ced78338c1350b4e7147ff8"},
	{"PRE", "soplex", 453, 492, 1055, 0, "4d455103008ed187e9e781e0664f382afc097e94cae1a29fe3e4248b712a34ea"},
	{"RAR", "mcf", 4, 350, 1646, 0, "95d4e8df370c260a6cf4153daaf85e205f3c14310771ca12d0828736f00f47eb"},
	{"RAR", "x264", 101, 107, 1792, 0, "fd74e5c1fc3fe7febeccef1781b353a355d429b28ae10cfce9bd86cd6cc9ceec"},
	{"RAR", "soplex", 7, 423, 1570, 0, "6444bd80784289c4f3f303d364062b3b495f2d59a7dfe6f4129b8db50d750379"},
}

func TestInjectionGolden(t *testing.T) {
	camp := rarsim.InjectionCampaign{Trials: 2000, Instructions: 40_000, Warmup: 10_000, Seed: 42}
	schemes := []rarsim.Scheme{rarsim.OoO, rarsim.FLUSH, rarsim.PRE, rarsim.RAR}
	benches := []string{"mcf", "x264", "soplex"}
	if len(injectionGolden) != len(schemes)*len(benches) {
		t.Errorf("golden table has %d campaigns, want %d", len(injectionGolden), len(schemes)*len(benches))
	}
	i := 0
	for _, s := range schemes {
		for _, b := range benches {
			res, err := rarsim.RunInjection(rarsim.BaselineConfig(), s, b, camp)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, b, err)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, b, err)
			}
			sum := sha256.Sum256(blob)
			got := fmt.Sprintf("{%q, %q, %d, %d, %d, %d, %q},", s.Name, b,
				res.Corrupt, res.Squashed, res.Masked, res.Pending, hex.EncodeToString(sum[:]))
			if i >= len(injectionGolden) {
				t.Errorf("%s/%s: no golden entry; got %s", s.Name, b, got)
				i++
				continue
			}
			g := injectionGolden[i]
			want := fmt.Sprintf("{%q, %q, %d, %d, %d, %d, %q},", g.scheme, g.bench,
				g.corrupt, g.squashed, g.masked, g.pending, g.sha256)
			if got != want {
				t.Errorf("%s/%s: campaign moved\n got %s\nwant %s", s.Name, b, got, want)
			}
			i++
		}
	}
}
