package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"rarsim/internal/sim"
)

// TestFigureCells is the results gate. One engine runs every figure
// (All) and then every ablation (Ablations) at seed 42, 25k measured
// instructions after a 5k warmup. The test compares the SHA-256 of each
// engine cell's Stats JSON, CommitHash included, with gateCells, and
// the SHA-256 of every CSV the run writes with gateCSVs. The tables in
// results/ are rounded; the cell digests are not, so one extra cycle on
// any path moves the cells that take it. The cells cover every core,
// scheme, benchmark and seed the figures and ablations simulate: the
// scaled cores, TR, TR-EARLY, PRE-EARLY, RAR-LATE, the prefetch
// configurations, the timer and MSHR sweeps and the seed sweep
// included. The CSVs pin what the cells cannot: which columns and rows
// each table renders, and the injection and multicore ablations, which
// bypass the engine.
//
// To re-record after an intended result change, run the test and, in
// gateCells and gateCSVs, replace the lines of every moved, new or
// missing cell or CSV with the "got" lines it prints (a missing one's
// line is deleted).
func TestFigureCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every figure and ablation cell")
	}
	var (
		mu    sync.Mutex
		cells = map[string]string{}
	)
	eng := sim.NewEngine()
	eng.OnCell = func(p sim.CellProgress) {
		blob, err := json.Marshal(p.Stats)
		if err != nil {
			t.Errorf("%s: %v", p.Key, err)
		}
		name := fmt.Sprintf("%s/%s/%s/%d", p.Key.Core, p.Key.Scheme, p.Key.Bench, p.Key.Seed)
		sum := digest(blob)
		mu.Lock()
		defer mu.Unlock()
		if old, ok := cells[name]; ok && old != sum {
			t.Errorf("%s: two cells share the name with different Stats", name)
		}
		cells[name] = sum
	}
	cfg := Config{
		Opt:    sim.Options{Instructions: 25_000, Warmup: 5_000, Seed: 42},
		Out:    io.Discard,
		CSVDir: t.TempDir(),
		Engine: eng,
	}
	if err := All(cfg); err != nil {
		t.Fatal(err)
	}
	if err := Ablations(cfg); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(cfg.CSVDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	csvs := map[string]string{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		csvs[filepath.Base(f)] = digest(data)
	}
	compareGate(t, "cell", cells, gateCells)
	compareGate(t, "CSV", csvs, gateCSVs)
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// gateRow is one line of a results-gate table: a cell's name
// (core/scheme/bench/seed) or a CSV's file name, and its SHA-256.
type gateRow struct {
	name, sha256 string
}

func (r gateRow) line() string { return fmt.Sprintf("{%q, %q},", r.name, r.sha256) }

// compareGate reports every digest in got that table lacks or holds
// with another value, and every row of table that got lacks, each with
// the line that re-records it.
func compareGate(t *testing.T, what string, got map[string]string, table []gateRow) {
	t.Helper()
	want := map[string]string{}
	for _, r := range table {
		if _, dup := want[r.name]; dup {
			t.Errorf("the %s table lists %s twice", what, r.name)
		}
		want[r.name] = r.sha256
	}
	var names []string
	for n := range got {
		names = append(names, n)
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	moved := 0
	for _, n := range names {
		g, inGot := got[n]
		w, inWant := want[n]
		switch {
		case g == w:
			continue
		case !inWant:
			t.Errorf("%s: new %s\n got %s", n, what, gateRow{n, g}.line())
		case !inGot:
			t.Errorf("%s: missing %s (delete its line)\nwant %s", n, what, gateRow{n, w}.line())
		default:
			t.Errorf("%s: %s moved\n got %s\nwant %s", n, what, gateRow{n, g}.line(), gateRow{n, w}.line())
		}
		moved++
	}
	if moved > 0 {
		t.Errorf("%d of %d %ss differ from the table", moved, len(names), what)
	}
}

// gateCSVs holds the SHA-256 of every CSV All and Ablations write at
// seed 42, 25k+5k, sorted by file name.
var gateCSVs = []gateRow{
	{"ablation_energy.csv", "1f0d41cb2dfc38ae78ccf9ccbad4a134052684ad6df4f2247a6837711673c928"},
	{"ablation_injection.csv", "53e32ccf2f3a063b4ee006148d7fc5982bdf15127074423f7a9d326e7382fa12"},
	{"ablation_mshr.csv", "c01f491972a375df820f5d21e986388f7310bcf17bf359c96108da063f7915b4"},
	{"ablation_multicore.csv", "35834f8f2152d232baad6bab1008c592e770801f2e983db55c7a7e45fb211705"},
	{"ablation_scaling.csv", "d7a5909a68e0623e25efaed4908dfebe6b1d9e72c578b9488972cb4f6f0adc38"},
	{"ablation_seeds.csv", "23d1badeba56824db7a956a797e2da8dbbbc79667c5f2db9828549f97868525e"},
	{"ablation_timer.csv", "619d1d8306c48754b24b8fcbb6d567a49723955d693ce0a63f0387230145adb0"},
	{"fig1.csv", "f70c94f74aab2e4d316da588ea5c5ae733a79d28c5e7c2adc3cecd70450a0a66"},
	{"fig10.csv", "bbcaff652a50ee12df0a2a479594c838fd8efe9c3b7ed19a319cddecaae558a5"},
	{"fig11.csv", "8bb644608c35047a5983a047e705068c1313db6365de28d2314424134212996c"},
	{"fig3.csv", "3814d07d619a56f625c1129a5b14dbdd71c83aadf24c271b5117a0783be3d382"},
	{"fig4.csv", "edd8ae7d4a7e3dad91b8e4a7880fbe614ecaf311799c49b1400e8d2dd6f0aa3b"},
	{"fig5.csv", "66a66544f8fab2aa585f115ff02c7459b1dc6a7b702d149362cd05d74f7c977d"},
	{"fig7a.csv", "e8ebb197e866251e46ef93fc010bd0d3b60c228713366d9fe491c5f99647995e"},
	{"fig7b.csv", "261828ffdb17eed1a629154e3e7b62f2a7d676c24174c91bde20fc4dbe197a4a"},
	{"fig8a.csv", "2108f90580efcc52d5cc87b595d308e6b1cbbad3aa49b7442505f04afea10c83"},
	{"fig8b.csv", "417f146da68945573fd2dc7b441ae431dd65165ef17c21f534f2d39f446f601f"},
	{"fig9.csv", "afab2b09471455de0b2228a1778c7c4a5b2b585191d9725a98d8a17a4227d0f1"},
}

// gateCells holds the Stats digest of every cell All and Ablations
// simulate at 25k+5k, sorted by name (core/scheme/bench/seed).
var gateCells = []gateRow{
	{"baseline+ALL/OoO/astar/42", "985a0ae65583a45abb2840b70d1e94091981f33ab8f03bdbdf42c3d1c7334973"},
	{"baseline+ALL/OoO/fotonik/42", "c0f0cecf011e69e2c557cc32730d28c08df1f38212100cba71c1067bdaf6f896"},
	{"baseline+ALL/OoO/gcc/42", "0a3a3ccf3bd7c4f2860b898e1e110cf850c72899c511f08be883b0ff40b447a3"},
	{"baseline+ALL/OoO/gems/42", "88eedecf46c1910a1400bd287fe00cf831eb17c249cdda2cb0afa7cf12d5ea35"},
	{"baseline+ALL/OoO/lbm/42", "586add612f1a1eb75d2caf748744c745b7de97327413ed704a3f90f3a8918127"},
	{"baseline+ALL/OoO/leslie3d/42", "66e28dba109e73cf94308976cf996f403d4b902a910a3a6d02aec457cfa19960"},
	{"baseline+ALL/OoO/libquantum/42", "b8a059b513330b207f8b489dda83dfa93ae3884630d82c052789eab22c06c56e"},
	{"baseline+ALL/OoO/mcf/42", "2cfd92c2e63dbafe4250f73992fc3517f0100400caafb1f266aca11e568c8c78"},
	{"baseline+ALL/OoO/milc/42", "4f4e3985a9ced654c806aea123149b0683d334faf43fe1efafe43296929dde7c"},
	{"baseline+ALL/OoO/roms/42", "52eeaf8b03a44a5e83ef460d1ebd639b455c01270030017f6fa475548c9f4b03"},
	{"baseline+ALL/OoO/soplex/42", "f7ce7a6e214c6a18b5a5d2a9b4b2288a7fe5cbfa876a8e596360ae95f2cb6550"},
	{"baseline+ALL/PRE/astar/42", "cc867e8d445428e0812addab9c46be2420de525f3e51f954938af89d1f41472f"},
	{"baseline+ALL/PRE/fotonik/42", "5a1d6a79651dba1b6df2be0dfd471f500e4e543f53fa2fd854f54923765104ac"},
	{"baseline+ALL/PRE/gcc/42", "dcdae3cc3cbd10a82f490c89ae1e20e5e90db970715f3419fece38eee0a77754"},
	{"baseline+ALL/PRE/gems/42", "9bdfe86c008190919353da3e078ecb9c724cf8036a2de44a86c654adca35c5fe"},
	{"baseline+ALL/PRE/lbm/42", "0446ad30b3968b53bc3ab05b0a894aeee2205cb90c9dad6d49d9c06a167e3aa1"},
	{"baseline+ALL/PRE/leslie3d/42", "fbe87b59e21a0fb9a5f8bfb1bef608e4f7796ac96646bd4a4aef126c254591b3"},
	{"baseline+ALL/PRE/libquantum/42", "8f74dd9b88fadb3fe59e1930fc90867cd1856f127aeebd8850a497303e03c162"},
	{"baseline+ALL/PRE/mcf/42", "194febde68e8a4d92403c5a26b68df44e2e6773ca2ad14ea8660745c34240783"},
	{"baseline+ALL/PRE/milc/42", "97ad624b4ce677434cfb62bd5462d7e5ae075936e6d31a8f194bdf5a3b087b5e"},
	{"baseline+ALL/PRE/roms/42", "ac40b04333ff160087a4c76fa040c81dd9ae2c51651c87d018679c1537c26a75"},
	{"baseline+ALL/PRE/soplex/42", "507c72c72daa54144fb2065884d1402fbb84c59b80988ab3e0e3d24d37f85edd"},
	{"baseline+ALL/RAR/astar/42", "ddbdbd5f2bd9a778996a4bcd7929c3c2c58632f0785e0d9aebd37349c3fc3db7"},
	{"baseline+ALL/RAR/fotonik/42", "864caa1dac1960f4a9315a199400f507304d0dee63b32f9d82b220578db0612e"},
	{"baseline+ALL/RAR/gcc/42", "218ab92c583a7f98c99c7afaacbc97d5b9c2c69905f2abc4d17afbc1190b4a11"},
	{"baseline+ALL/RAR/gems/42", "59b862610515ec06257f7485ce3ad488d7620b019e0d5d52d11d08f330382a7e"},
	{"baseline+ALL/RAR/lbm/42", "a6bb083dd12013dbac51698d000e71ac8fefe2b73fabc4235173e64862780cbd"},
	{"baseline+ALL/RAR/leslie3d/42", "71b6979c0d9794d02ffc5719641294f42dbef2b33b041be4f1d80ed797a1e967"},
	{"baseline+ALL/RAR/libquantum/42", "c1c88595013753cac7a95f63309eca23657c30b5751cdf24fc314666b312a3e6"},
	{"baseline+ALL/RAR/mcf/42", "f54de6d45162a03346afa5743d40e740f58969ca557be729f4e17f85074bf033"},
	{"baseline+ALL/RAR/milc/42", "5d1a3d3eda1504a8a342209da2880f627da413b5360ed494f4804c441f7d67a3"},
	{"baseline+ALL/RAR/roms/42", "529117e9815485b41b35c18f96e30920aa9047f9eb0867069bfc29cf25c0ffb5"},
	{"baseline+ALL/RAR/soplex/42", "da223ec0dbd456760a60bfde2ab59a83df2b1dd8726182cddc8ae23577a224b9"},
	{"baseline+L3/OoO/astar/42", "bd4a699cb4f5e81c877930a6190d0cf3a5675143df888c0592edd43b40b2d582"},
	{"baseline+L3/OoO/fotonik/42", "758b5a1088794eae492dce12a510117c041c60d7183e26634a1ea9690b1c5e5e"},
	{"baseline+L3/OoO/gcc/42", "86fbd47036415be965d2cd5fe188d621b193782ffb8c06d49746784376645d78"},
	{"baseline+L3/OoO/gems/42", "a997deab636944712f63815a41ef0f0fd6bdae9e9bb4918e4631d8599067d846"},
	{"baseline+L3/OoO/lbm/42", "1323fb55656a4c15b0ab5cb929823d985ea5f852d9ba1f85bd61a7ffd81409b8"},
	{"baseline+L3/OoO/leslie3d/42", "95cb3e42e72df30e3fd1add11aa1e1c94d98094e3be94ef9ae7b3b1cbc0a7b2e"},
	{"baseline+L3/OoO/libquantum/42", "5d4fb6d3a8e9857c4e9abb1e4598978a02a4fba0a3518a87798af9776b1f0338"},
	{"baseline+L3/OoO/mcf/42", "c5c00b23c06294e9694207026ba7c6d35719e36988bc19592d8420ceb806b714"},
	{"baseline+L3/OoO/milc/42", "3a76d7a79cd860b694d6df22fec27bfe7aef89215aef69b3111bf690c48ac542"},
	{"baseline+L3/OoO/roms/42", "4aa31778ed66157c10b17d5ad988da8252f83f67f15e0616019250f3058f303d"},
	{"baseline+L3/OoO/soplex/42", "2461e25a264cb7084d66c0b666f30f77de85e5f4383743c7131c284bb378272c"},
	{"baseline+L3/PRE/astar/42", "6c33e4ee78f369848bd4502111d93e4909166b1836a6645939808c99bdd8c17e"},
	{"baseline+L3/PRE/fotonik/42", "074221f9ecab6a94f1539c140bacc918059a406f39bbaf17d4c9455da2e9b894"},
	{"baseline+L3/PRE/gcc/42", "bc826e099bf6b5b8407a7c457cbe7318e78f119ea49228da381cee153174a26b"},
	{"baseline+L3/PRE/gems/42", "59b8fcb9512842f1bf4d1d1bc8a2e7c9eb22609643e2ed7c3c3d259d6ba26769"},
	{"baseline+L3/PRE/lbm/42", "655be5eec809b2c4722a0eaadd41e87abe10f13150ee03d7872124964d0a4235"},
	{"baseline+L3/PRE/leslie3d/42", "3a9d9130d59f0976cd485b8cbe46244034ed3e166eb41f6fce5b448a49db553a"},
	{"baseline+L3/PRE/libquantum/42", "410d4a36bab1770ff13986ff01f2fa48ece2297013325ee245129030ea05a72e"},
	{"baseline+L3/PRE/mcf/42", "d8f134f3b048696ec5fcf19639aec263a27d4a6d0c3a6c0d387fe84cc7ab8591"},
	{"baseline+L3/PRE/milc/42", "7e458dc737fd702f08f4ddc91f627213d3869e338d3f5b4853e59802d7acea9a"},
	{"baseline+L3/PRE/roms/42", "9df06237d040d433786cf09c7d24330b9917fdaad0fb6a87421bafc5947ec99d"},
	{"baseline+L3/PRE/soplex/42", "51a0231c4af7204c7c01017ecf622351ae5ee9b62e08fe011bc9cbcbf55908ce"},
	{"baseline+L3/RAR/astar/42", "6731167323d956f647784d42ed8f7dbf8ef54adf15b11f567c4e0e5aebbb41d3"},
	{"baseline+L3/RAR/fotonik/42", "29ecbaf337ae649a5be3332d42b2d5a36d775abaacb08ec87d6639a69b6af714"},
	{"baseline+L3/RAR/gcc/42", "4794c67b6a7394eabba3e30375432488aec3510c64032babbb5919859bb258c7"},
	{"baseline+L3/RAR/gems/42", "0bad8e50132efaaa4c530f78b9cf895fd8dd558f78a251a50909f5a70576822c"},
	{"baseline+L3/RAR/lbm/42", "bc85d16e8e4089dfd95d38771ef634faff2d3320be7e73af8885a3b08877ef43"},
	{"baseline+L3/RAR/leslie3d/42", "d3ead602b858373b1cabc97438abc8c519a4b7ecb22df7beb7139269c48e5c30"},
	{"baseline+L3/RAR/libquantum/42", "9a2216c3e751417376948ae5821af32421ebe9756370b4387a9f5ca6ba644639"},
	{"baseline+L3/RAR/mcf/42", "7419dde9c52160a9dfb9db87c5e279c43e6bd7b94509c50d2ca6f92780288510"},
	{"baseline+L3/RAR/milc/42", "000721fd976b05ec006305b506f9a2196b7558a4938cdb5433d2b5373e2c0806"},
	{"baseline+L3/RAR/roms/42", "8b30cc29272990a3e2aefd6b3f6ebda2d4d08f7510c42551aec83b3f8768db82"},
	{"baseline+L3/RAR/soplex/42", "73fd0d4d1d4727ee2e39027117c628b5e5bd8cd0d4c120a2f62c68d25965ea6c"},
	{"baseline/FLUSH/astar/42", "c9085fc574f04c3782fb71d568a55aee87db58716a6db32dcc308f0aa951f34d"},
	{"baseline/FLUSH/deepsjeng/42", "4cb5352b2a0c7b381525865b94104a3e2980ebef1125cd446fe4cbae36c43c0c"},
	{"baseline/FLUSH/exchange2/42", "5ef926e2bf6ae103a462cb468e2f10ec1821f6497f852e067a19158532be7e29"},
	{"baseline/FLUSH/fotonik/42", "e248b9e72279a60030cb6d7eeaf4d66bc44200a711c8974726f2e70b05914254"},
	{"baseline/FLUSH/gcc/42", "144dcfa96c5b9f4b343381174b58434a3acc7baa182281174cd71f6e91c5657e"},
	{"baseline/FLUSH/gems/42", "c74cc705ac2b9d1de8700d9a60345ac0fd312d50a3a4576f4b30a3a0c72b776a"},
	{"baseline/FLUSH/imagick/42", "8c14b7b84a9fafcf298ff6f4777719709a0272c967bb31c143f741fad2ed9d02"},
	{"baseline/FLUSH/lbm/42", "7bac76c6d8247860a910654868ff7a4a5eaa663e42ca219ffcd64be1078aa48f"},
	{"baseline/FLUSH/leela/42", "8ff7d1f2640807e701535f677847c0bea982f028c3dbb1b6f3cacbf08254a4f0"},
	{"baseline/FLUSH/leslie3d/42", "34d64658c7406d34dda6189be40ac4199b419c58d394f03ccfac674cd3fdb381"},
	{"baseline/FLUSH/libquantum/42", "c24cd5c3ac8eea73f413540492877660126eb601150f4a72c227877e495f8fd6"},
	{"baseline/FLUSH/mcf/42", "85bb21ba05b460efd58cf773dfa64216a68890e4a731084a4a5cc035e84cf29a"},
	{"baseline/FLUSH/milc/42", "ecd1731959407c3429bf8bcf8b969e683e325801a0216c43268ff83e4d66b16c"},
	{"baseline/FLUSH/nab/42", "edf3ad3b8e0ca594e7634042a197e44eac56a67f2a3faf4acbeab937a469295f"},
	{"baseline/FLUSH/perlbench/42", "ada258d3eb311f1f52f168fe99e14161d5d358b1e6fd9bb179eb129f363bbb0e"},
	{"baseline/FLUSH/roms/42", "b9459cc68538ab2285798f036634b56c8f08728b72e4ea1e26305a486ebb5af2"},
	{"baseline/FLUSH/soplex/42", "0c443f4dee891069512fbafca957416ca377a812539a9a61a6640bebcef27e32"},
	{"baseline/FLUSH/x264/42", "d231fcffd1c7fb76b40a72278fc3e65769aa264ba80c792fd29b8b7da030fbab"},
	{"baseline/FLUSH/xz/42", "541605cf4d7cd7fbedb31c08f10dcc5f03076d7c6a8429a96bbe2a6edcbb47c8"},
	{"baseline/OoO/astar/1337", "229c54f534aa6d0d9bc872c76c028f34a23e001b6dda93fe37f01c23be9f6c4a"},
	{"baseline/OoO/astar/20220402", "830b5c470bdcc8e3a7ea423dc37b22d4f9896c7a07d77524ecb903c1712e04c9"},
	{"baseline/OoO/astar/42", "93258d62446f459a6e6c7b5478ea13efce61ce09cd661fcc37d7269157a34a6a"},
	{"baseline/OoO/deepsjeng/42", "dc5be3e4b6696acbec5671bcba15f1042308dbc0893aa56232a6849e45ab96b7"},
	{"baseline/OoO/exchange2/42", "c9e02a2d88f6a70ea83f96b2d5f0905add2832f15f038f050094f1cb57f69692"},
	{"baseline/OoO/fotonik/1337", "08d81fcac714e5443a0b7db1bd3066fed89fb712cc5772bea0ec1c5dccc96816"},
	{"baseline/OoO/fotonik/20220402", "08d81fcac714e5443a0b7db1bd3066fed89fb712cc5772bea0ec1c5dccc96816"},
	{"baseline/OoO/fotonik/42", "08d81fcac714e5443a0b7db1bd3066fed89fb712cc5772bea0ec1c5dccc96816"},
	{"baseline/OoO/gcc/1337", "53fb668dd96835eece3ee81dc21a2180ce257ec2f29adfe39e1ecebb33732ded"},
	{"baseline/OoO/gcc/20220402", "26a8fc6349b4169262bc2de0cb22a77bed01671e7f3738f9d2266d928cd3ab9c"},
	{"baseline/OoO/gcc/42", "72e8c6c691383ea572e4578710a5cbf6bfe5fa66edbfd3d5f1ff2c8ab4353d9f"},
	{"baseline/OoO/gems/1337", "7a3a69fa1922b0c8d9c8defd03ff30958b8f58b2e6826e2e11f62bb8ac1e9c44"},
	{"baseline/OoO/gems/20220402", "33138be406f9280e78b6f4498cd21885371a09b8aad57b318e2abaf7b996ebb6"},
	{"baseline/OoO/gems/42", "62b16790b048a5da353cf590e7f7548733ba5c6703ec9270bbf26886e0075a23"},
	{"baseline/OoO/imagick/42", "386907d0edcca5cafd086de8d002b9ed5541c3b2f1818c8a42098e05a4805e48"},
	{"baseline/OoO/lbm/1337", "dbf5f0536580b8962e93a6f99c1c3ad47bdaf1a6fc6bf957cc6147113c76e186"},
	{"baseline/OoO/lbm/20220402", "1a2f8e7d8c32197c3d16f933dde7b176ab07395b9f8f8f69bbfdce9066bdaefc"},
	{"baseline/OoO/lbm/42", "4b292be8748cbad486dc115ad12cb7fab50f2ff49cd247652e92a85dba3fd762"},
	{"baseline/OoO/leela/42", "abc37d36489de9405763e2de9b31c78d89497bd9dd82050c3a001a7a02aa1ce6"},
	{"baseline/OoO/leslie3d/1337", "605ef54613bb68ca612d888eeb5505265435633bbc916373b90a71ef62000b7d"},
	{"baseline/OoO/leslie3d/20220402", "7c5be49fa0372dbf74f0411fccbbfda57d204cde8c6a851f20397e8c40664b21"},
	{"baseline/OoO/leslie3d/42", "76a05fcb8ea20c771c86b925049c2417798736e722337a8f631e1e3d1a1c1038"},
	{"baseline/OoO/libquantum/1337", "f70da5852790e0442f3a7f125bf0b37f1470414007ae1300e50708629d06a969"},
	{"baseline/OoO/libquantum/20220402", "b7150f91db0c4cb389eb82092251fca747920da3ef13f931455f8a454ab5b624"},
	{"baseline/OoO/libquantum/42", "32ca457b6a2fd392e6b9f20bd6be15781e71ca435ef9173dd85a4df653361355"},
	{"baseline/OoO/mcf/1337", "088c1a4aba378066ae9bcfe613319af75e6bd9dc747140e92d7befa127cc6eab"},
	{"baseline/OoO/mcf/20220402", "5c5ea02c762609962ddf4bce7786433e3380bf63adb0bb4572fbe494650efb47"},
	{"baseline/OoO/mcf/42", "b34f840e4b757d338e6039e0fbd01bb02ee131d4e1b19359f678949c072b4f49"},
	{"baseline/OoO/milc/1337", "1e78aa906c5a0e2f67a6fe0e3b9c168a8eed1ec08452b27370607cca0a32fa12"},
	{"baseline/OoO/milc/20220402", "b311d12dd64080fc6e76ee433844667c953664567b4f92b776a6464ee2204188"},
	{"baseline/OoO/milc/42", "f04f6cd0cfe0842e1f86d04eb50f08624b7c37c224f9d205dada7f34f1bf97ac"},
	{"baseline/OoO/nab/42", "da846edea3b741ac9e1ed6c896b0ad446c9fed1c387be0bf0f8cf522359bcec8"},
	{"baseline/OoO/perlbench/42", "1e931d09767586521ada213dea546aefab3858945c1e49b79a6283fd198b0714"},
	{"baseline/OoO/roms/1337", "d71edd1fe3e816dbfddd7465003e774b591356fc9a3e782b5efa1b9902f6a269"},
	{"baseline/OoO/roms/20220402", "d71edd1fe3e816dbfddd7465003e774b591356fc9a3e782b5efa1b9902f6a269"},
	{"baseline/OoO/roms/42", "530ffa947fd9b9fdba9cc1b04428dd598f1a125ebafff53f06a4fdeb66dcbcfe"},
	{"baseline/OoO/soplex/1337", "2aefd592693efa850f6f1e2fe7cdbf0a2ad6d0a86e3d07135e8384a170cf8372"},
	{"baseline/OoO/soplex/20220402", "7fbaad353a50d6a13cef054ef41f8c3327c2f27e8e875bd8506078a20c524e21"},
	{"baseline/OoO/soplex/42", "3b1a245ae6d47776a8848a6de369d7ba5c9907ebd31ded220d764ebe2f27b068"},
	{"baseline/OoO/x264/42", "4194e66a39e674fcfeca056f0b9d3c35dc63b0549aad811f55c65b69689db880"},
	{"baseline/OoO/xz/42", "709af7ff2f867d4b18a5ccd4088e05f620512dd20d6e17b1a09f1e768e4fb7c8"},
	{"baseline/PRE-EARLY/astar/42", "54a88eacec87c0a1618e8b42dc21b3e1677440b93514686eae8626c9b64423b9"},
	{"baseline/PRE-EARLY/fotonik/42", "c76f0a5ed36c6d5af916152e7ee2db853b13fa3e13fda61aa293f8e8985ce770"},
	{"baseline/PRE-EARLY/gcc/42", "10680be67b90710495a60ef3ffff7c759a37d47aec97dd5d8167ac382b3dd17f"},
	{"baseline/PRE-EARLY/gems/42", "b30121474017044048fb0434b870b24065d33db8cff52a051968d43f8ce53125"},
	{"baseline/PRE-EARLY/lbm/42", "e93c0eabe2d228e6eabd339fa31a92990fae467fb0118a786ffa649f4e978a87"},
	{"baseline/PRE-EARLY/leslie3d/42", "9549b4e0743ff46744f0e88a3dace2dc8e427154a02d32ef84127220d0cfee49"},
	{"baseline/PRE-EARLY/libquantum/42", "c565145e5977492e5f9f76ea6aac2239113c1836a1e8ec3025864204b7e101ff"},
	{"baseline/PRE-EARLY/mcf/42", "85e2932449041837ec377780b7922476e7cd27932179d74a9d2aebb8839dd5b1"},
	{"baseline/PRE-EARLY/milc/42", "6c21ee1ba0158a55d5f112409eefa70f701e50cc239e7c76905555900a80d01a"},
	{"baseline/PRE-EARLY/roms/42", "bf2891992820594b0a64c4dacff8f696e8b1e6f40617bbaa42155a4f46ffc303"},
	{"baseline/PRE-EARLY/soplex/42", "0eac563b5b87c43ead00f754bf9d50dbf82e9811f78f0fdc97e8f501d6f3b9ee"},
	{"baseline/PRE/astar/1337", "f4fce65cf73f9b2b5208e358d16fa935fff367e92ef69c4b2c223932e615f3bd"},
	{"baseline/PRE/astar/20220402", "20349fc276fdcb4c0d74e1071875bd334dc29dfe3f8fc94c79ace0c79d928b5e"},
	{"baseline/PRE/astar/42", "e3516b53cfb9cc8146584b74a921ad76cbc39508442ef5206b4ee0aeaf54480b"},
	{"baseline/PRE/deepsjeng/42", "328fbc647f36de3cfa5cc862f4b45720325dec31cf91c5931e681d29424b52b6"},
	{"baseline/PRE/exchange2/42", "909e2b50ddaf6e86dcc821993731832dbd8c146ee8668ffabc5f4822f9d8ae30"},
	{"baseline/PRE/fotonik/1337", "5a1d93b9a15c3779441319f43e217acb0f225200d11930db3dc6202d528458bd"},
	{"baseline/PRE/fotonik/20220402", "4859b8e173009a8506b03799a7f50de6174f3ad36a3dd861ad37d7384d1d88f6"},
	{"baseline/PRE/fotonik/42", "7e0d89af053d48738168d1cd8f8ed83709c0086524c6f49842afec3f225ae5ac"},
	{"baseline/PRE/gcc/1337", "3b17ee1b10ce55900e8b075371c278959b416a0d8595b65a6af01d24704fa00f"},
	{"baseline/PRE/gcc/20220402", "51c4b14368d5527c482df2236dcab73b03bc4caccb3b835c3eca14dcf1eb8721"},
	{"baseline/PRE/gcc/42", "430488a1950a347499eac0cb6d85641ad7605b7b3be99057ea88661eb5266d4d"},
	{"baseline/PRE/gems/1337", "1a0b4d0ab641c0ad9e2b429132c1b9f5c8ca9880618b6d8ce3d35b919a3611d3"},
	{"baseline/PRE/gems/20220402", "ac87c301e49085098c6859a5cc63338c2712d20355433557521b885fe5b84ee4"},
	{"baseline/PRE/gems/42", "b79b188375062f095350ae88d5d5f5ad6be29cd502894559353b87a23c96ee44"},
	{"baseline/PRE/imagick/42", "817f44837d1f50253b71976cc079d82069165ccd4fe34438845f5a0e324a31dd"},
	{"baseline/PRE/lbm/1337", "124b5e17b29d8976044cd82c5508750cdb244ea52a9f2adce764ea27561dab6d"},
	{"baseline/PRE/lbm/20220402", "2c434fbcd0b0c407def9541883183e88cbc5334c09853020736d6e8644c8e8a8"},
	{"baseline/PRE/lbm/42", "3797297d3aeee321d232fc67360b111f075055e6f52ff62e186af876960e501c"},
	{"baseline/PRE/leela/42", "cdd8ff2a9d181b4cbd8898518206ae2f3a7d10f99b3ea084b44f42581a14d61c"},
	{"baseline/PRE/leslie3d/1337", "3914914e574394286be1650f7552de78f575c2d4a193ebb0ca3d431286f972d7"},
	{"baseline/PRE/leslie3d/20220402", "bd2c66ac7f5a44512448028fe3768f4b837bde4962792222bec502afaaadd527"},
	{"baseline/PRE/leslie3d/42", "42ee0bc5cbb9a7d8d1451e110a0fb0e8d0b22bc38e3313c2ac3189b2e2d91c5b"},
	{"baseline/PRE/libquantum/1337", "432ae96c869c365abc64d8a0d6fa47b2ebddcd5fed555e6020cb0ea2b2fe173d"},
	{"baseline/PRE/libquantum/20220402", "e9429337470b72f24003a80699b944c8cf33e346037e58e4bbc7be0ef6bfe060"},
	{"baseline/PRE/libquantum/42", "3a98cbb2343b8c8bb596121c4d7dc6ec67eaac320d327e225034e8dd048e75e5"},
	{"baseline/PRE/mcf/1337", "17b28941d5195d45a3d0f89e6fa8cf1ed35afa643fe28765818451b184d1ecf8"},
	{"baseline/PRE/mcf/20220402", "a432f818290a057ac5fc402af1ffc5c10bd44429bfd248121d04e9f7b1b466ca"},
	{"baseline/PRE/mcf/42", "dc8a8b02d667ef44e5276514d002d0d48b500f14ff9542d9fd0973aa71218d32"},
	{"baseline/PRE/milc/1337", "8868f67e0f5a2c9072a03e8b1e2099469d60356a400d686fafdf1893b70666d9"},
	{"baseline/PRE/milc/20220402", "f269f0105eaa0cc52135b137ee99b218273a130fd5b3babe09d4e7256d4868b7"},
	{"baseline/PRE/milc/42", "f43df33282ced92177c2c40e8008507a90f4f1bc94c688337eb946546b960984"},
	{"baseline/PRE/nab/42", "d9f4a3f05a06467c2597ff4ff592a20acb7d67522a0a417b30cea7f79f05f510"},
	{"baseline/PRE/perlbench/42", "1a395e97a6db99f8897c85d3816bc57f3296068d2800c6b74199437ad500024a"},
	{"baseline/PRE/roms/1337", "d20195fcfac9942fa8d520ead32bc4e8dd91845f189856fd153331ea6c7574f6"},
	{"baseline/PRE/roms/20220402", "d20195fcfac9942fa8d520ead32bc4e8dd91845f189856fd153331ea6c7574f6"},
	{"baseline/PRE/roms/42", "379a3a37304182fc9c53d3b28298113859e1b37199ef04ed8d8adef31743cb7c"},
	{"baseline/PRE/soplex/1337", "3a8859c50699b4ff456d1014339a7d1c62725f007873bc0be859b2333fb78bdb"},
	{"baseline/PRE/soplex/20220402", "2637886890b34af6fca272e5daf5d3f9c6f121574fea6eacf41f42476e6f64aa"},
	{"baseline/PRE/soplex/42", "e4e623d662fe974ccb7a6be7e5172a5079d1babd718841e0bf05d7a17ab00cd4"},
	{"baseline/PRE/x264/42", "1a03f8338331c0c2442df9ab89fdac32497f5fb1de4754352a62ec42cde1498c"},
	{"baseline/PRE/xz/42", "587e96a25aed21a11ca959ddb234cbb81341ece164721645ef0e1a3dfadcdb27"},
	{"baseline/RAR-LATE/astar/42", "a61883cc103ec19a9ce7a7a3c0ac1cd09c8ffca955a40e51a4f815cdd2a71163"},
	{"baseline/RAR-LATE/deepsjeng/42", "a4c9ef63161fd880ed4020a886a25b00eb12bbb31df960182619421f0a8a5039"},
	{"baseline/RAR-LATE/exchange2/42", "a2b9128ea17796f51d04961d8b59f96f714b656fa379f96025623fe024449f49"},
	{"baseline/RAR-LATE/fotonik/42", "b2435ffd7df0cc944451f2d26b811f446f844ab4e7f3ab1ba604a85af012be68"},
	{"baseline/RAR-LATE/gcc/42", "37d8cf64d2c13994661287bceb8d53e37e74e89272a54f595b381836e242b9f9"},
	{"baseline/RAR-LATE/gems/42", "dddc7c5369bd87cb97f6891427293655ea005a2329379a946f257dd0fcd11fda"},
	{"baseline/RAR-LATE/imagick/42", "ac99107a73bfbc549ec5e732893e17efd14196df36aee6fcc5fe17a7f007e056"},
	{"baseline/RAR-LATE/lbm/42", "93e3afbe1fb5db387674dbdd3388fef741bfa3730e8a7bff06c5ed4bd7a525d7"},
	{"baseline/RAR-LATE/leela/42", "11c4ca4e36bf75dca16285c2efbb35a67bda23a36336660259e00d21042ff13d"},
	{"baseline/RAR-LATE/leslie3d/42", "0fa49a1402867f5626fe5a4c36f887d3af41cd954d77b95f0e6a6cf5a05bc5df"},
	{"baseline/RAR-LATE/libquantum/42", "c2959c5c1ff4c124cc58f59b61ff7b6874a7fe936a9378123075875029d0896f"},
	{"baseline/RAR-LATE/mcf/42", "7b23a6cf73b1c5112b4fec301b189a5b1dbfc9771b14d1efd5eab451ab946f33"},
	{"baseline/RAR-LATE/milc/42", "d41a159ee70d8175fa6958c4d9f65ec116a3ac114b36e29d51a539216bfd47dd"},
	{"baseline/RAR-LATE/nab/42", "3436cc0015dbb6c8182783704a1a8086574d7b789c6319678a0e064a130d5075"},
	{"baseline/RAR-LATE/perlbench/42", "5645641a059f709fa529a2aea6d01de213aceff385be96a364331a319db8e57f"},
	{"baseline/RAR-LATE/roms/42", "cfc9e681df23f0214f36994c4996abca9290e30b61f69dd4eebdbb30a891c74e"},
	{"baseline/RAR-LATE/soplex/42", "b93eddf0f50d011c052d8dc980807e4f98d10d6703ea9961df89f1da3cf25dee"},
	{"baseline/RAR-LATE/x264/42", "c234779a73f99f9f61b99276b77b2423d4be0b1d857ef136a00562e50d5d69d4"},
	{"baseline/RAR-LATE/xz/42", "467e699ff8ee6d3b78a65781b3dd470dc5805052662efa4ec1f1154e29fc113f"},
	{"baseline/RAR/astar/1337", "7d7a1d316f8c90193ba8b8f9ae4121466da5d60b41f0eacdec6a1a56dec2b968"},
	{"baseline/RAR/astar/20220402", "23000045d3b248297a3b390b91031fd83dd3ed0df4e52d73d123674456bfb38d"},
	{"baseline/RAR/astar/42", "f47e287aa7c9a86ac831acda36816597bd6c2b13db36bc332b2de1402b213984"},
	{"baseline/RAR/deepsjeng/42", "8298f851acdf4e6fe7e639a12f42ab25385ea2a4ef51c4c90fcd573379fe9a31"},
	{"baseline/RAR/exchange2/42", "06ed3c13a1737b3f1e788333de344eaad46f49590fe7da7bc108ea73cf1c1226"},
	{"baseline/RAR/fotonik/1337", "2fa7e7fc8b69ce1c6cbfa85887289dc2e8349306e60bb2a8deda9ca22902fbcb"},
	{"baseline/RAR/fotonik/20220402", "83a7187b1521b2d7de7623a0c8b77adb700bba20c8910da54c596ab771a4e0d2"},
	{"baseline/RAR/fotonik/42", "5c2cc1cc0a3f90d01e08e0758ebdcb4b98eca0c86665e565ed4a5b1caf5b6160"},
	{"baseline/RAR/gcc/1337", "53105dcb7e59930d9c9295b90c73bb888dad6cd6d2d31d3274bf0bed2b00b05a"},
	{"baseline/RAR/gcc/20220402", "d3bcf44342a2839c9d65c60bd5dd88f703bc569496d8c8f56c4093ccbb03a58a"},
	{"baseline/RAR/gcc/42", "5bcff784b03196ae83aab26c2b65db699886c21d7f5b7380629887818d01c3a8"},
	{"baseline/RAR/gems/1337", "b2ae025e0136013e5cd0c26c0acbd2f36749d20b4e178a935a66567e7f788bb7"},
	{"baseline/RAR/gems/20220402", "3fa952873f3080be0d4194e22bc81f425ae5ee6adf6de8474208dc3c70bdd550"},
	{"baseline/RAR/gems/42", "2bb6365166e5b5648d9ce12ce7439bf4b5f54f2c0bb71c66e9852e9754cd679c"},
	{"baseline/RAR/imagick/42", "64cad885fad7489fb75deedbe783674f51224280a414b43df05f4dba87102a05"},
	{"baseline/RAR/lbm/1337", "d6c843aed37058ff4f18ed2d0ab4bd3ea262c4d860920e8bab8dff1554c2ea05"},
	{"baseline/RAR/lbm/20220402", "ce1d970eb43503371c9a20a2e6595e7d1c0764f69798677af5167e81b9da7638"},
	{"baseline/RAR/lbm/42", "b3e2f0bdbc8f5dc08536c8a3e467fcd0d810b2a7de3b585ef70d118e6f5b242a"},
	{"baseline/RAR/leela/42", "7f150098e82e13ecd8d29db9ce40dc79bc3eb9620640b4f8b80cdcfb6a8511fa"},
	{"baseline/RAR/leslie3d/1337", "50bd4a06228c2110a7371e61cf225fb64d4963bc78ea67c6a8e8bfb0efdf358c"},
	{"baseline/RAR/leslie3d/20220402", "53c035a2d71d5912b582de1824d60f5f562a8960c6bd2f7c2d1c111b359a5262"},
	{"baseline/RAR/leslie3d/42", "301963360af7104bf055e3c43f3c88655388961e7089b50beb605e46e2d5dde0"},
	{"baseline/RAR/libquantum/1337", "7fd9009d400078c8f3b7ff295e4fb70e58f31596ff0dfb5b76d3bc7622f3fefd"},
	{"baseline/RAR/libquantum/20220402", "3c1f26b17e7d34fb5fe7a8f290c6434fc73446a8e3a9eea5df942267982da8f5"},
	{"baseline/RAR/libquantum/42", "b13781df5a36d922b8920e04190792252c766270bdacd63e0f34b3f64b8515e8"},
	{"baseline/RAR/mcf/1337", "aa1ff71bcf1588bfb78f35bf0356ca53896d06e08712776f937118f34306bdea"},
	{"baseline/RAR/mcf/20220402", "32186eb0e1b8b4d2b5d78b3e6b929f72cdca29f90e622f05b2c905d07a547369"},
	{"baseline/RAR/mcf/42", "d9ff718404168bc3c0f3b0f029f3537ee2a5c5fe1b9f0f55b59adf7f179dc7d2"},
	{"baseline/RAR/milc/1337", "cdd0b798e6a585ffa77f1e29b101d068ef89bdaffa605d24e09b607c18575e02"},
	{"baseline/RAR/milc/20220402", "3d3223c0d1589c79ced30a38d6bc9ea18ad578277f3cdca6787db0d29ed0c3d5"},
	{"baseline/RAR/milc/42", "da193b40b1ae097861efd798ccb0043ad3304e0b782c6dbe425e3792435367a3"},
	{"baseline/RAR/nab/42", "55a883c6a6be7227420ee7223f5b479d1b5026f2c4a7b470b41a08352346812a"},
	{"baseline/RAR/perlbench/42", "330e1dc5c6f5b3f4478fdc50eb4c52b1a338f0e1ae8dd357678bcf9197d9aa2b"},
	{"baseline/RAR/roms/1337", "d90d5f5aff62fe4dd0fbdd84584963b8bfb69a7d60923c88bfdaeb11ab4a8f07"},
	{"baseline/RAR/roms/20220402", "c523a0b46e2c73248e853524dc99e60b4d724d74e72fc9cfdaca27ff0a52f718"},
	{"baseline/RAR/roms/42", "5c134dfa5d9f5d087dc09081a9ec9b0ba3a2f94acd0d01f05c2f0809600d9597"},
	{"baseline/RAR/soplex/1337", "237ad2692eb5ce87ef19bd34b486062724511305cbcab83dc7d59d7c439395e0"},
	{"baseline/RAR/soplex/20220402", "f64c5512c42f834e1cf52e9b9e7f51c85f3dea4cd55036d9af5a1565dfef7473"},
	{"baseline/RAR/soplex/42", "5fe3fa48e35cc787948416004958083ebcfeaccc60a071dc1333f0727040eeca"},
	{"baseline/RAR/x264/42", "e3137fdf00aecc27e193c424792148237c421fca9c6c27d7bac64ac1e453c89f"},
	{"baseline/RAR/xz/42", "2cb18770ecaf37ef83d59622ba904cdc17928e5df7a8dfd617830b46c9889ade"},
	{"baseline/TR-EARLY/astar/42", "681ceb171aec455b0ec4231c64f24b7305fb1d99ab37f1465a6d5441a44913cc"},
	{"baseline/TR-EARLY/fotonik/42", "6bff4feb84ccb933e8d7145dc583668f82ffe25812d428ed9c6fa8f9f1d6c2bf"},
	{"baseline/TR-EARLY/gcc/42", "fa61010400594f05f511d9c4d818a448625d93ff6382d553cd0f74b70a8dc67b"},
	{"baseline/TR-EARLY/gems/42", "b30aa27281f7dece2c2b885f45785c603ec5b8b5746acc0772dfcf2014c496e7"},
	{"baseline/TR-EARLY/lbm/42", "95c2386960934fc7d00a3ca9aa68d522045bd39e464fb24a6f3b2f93c4dc4055"},
	{"baseline/TR-EARLY/leslie3d/42", "32929dcc4f4ce72ebd89846d981b48c1bbbd6824320b501e7a35f912b8387d59"},
	{"baseline/TR-EARLY/libquantum/42", "399d7289aaddf666934113045aa5141e470a67498b0e75e1a8564c4c0442d394"},
	{"baseline/TR-EARLY/mcf/42", "fc2e051aa219a2500b3e163c98b3240268d48cc31417cbb48c2281930258742c"},
	{"baseline/TR-EARLY/milc/42", "8ccc4f8d7ad427b83811bcd15001e0c2851bc450e0fddbba672e315763d5970d"},
	{"baseline/TR-EARLY/roms/42", "1fffaa3830087974e59c6a5700fbe70a34eabf1ae7429227e5f25cef96b716a1"},
	{"baseline/TR-EARLY/soplex/42", "c635e4149366247cdc6275b071ddedd9196bdb61d82b7bc902f220ea285043f6"},
	{"baseline/TR/astar/42", "7d5b8e0fa7f4ddf6042d3a8beae38c9bc453ec9ffbb8a9f6b68eda850fc86dc5"},
	{"baseline/TR/fotonik/42", "77e056b894ebee411b8427c1b2d8878fef7723b99a5c55d1cc8c96ef72445030"},
	{"baseline/TR/gcc/42", "00b007affca9fe81b758144ab3ef7fa0a8f4e8b3bacd02b74b9f58ced5384d1a"},
	{"baseline/TR/gems/42", "ac3527ad7d3806af95a96fb4359bff9a6e86e83a342bd763e398ba1785390af4"},
	{"baseline/TR/lbm/42", "25136e399908d118c19c884782417283b98d348f426be82e0d06f4a2c1380319"},
	{"baseline/TR/leslie3d/42", "c189b222f8842975b3680fdbf99d80cf9ae15bae7a8256c493da1c5506035ba7"},
	{"baseline/TR/libquantum/42", "3ff135a6e918afb0006433522f0011ffaf8c2a70cc6c7280e1a5b33b8478d0f7"},
	{"baseline/TR/mcf/42", "e3cb5bc6b1f37604471559794e726f9c9a39721aca2db9b98934b4209f2161bb"},
	{"baseline/TR/milc/42", "4400217218cc13db8662808e243e62d397e99ca91d3636af5f8d6e898dc95779"},
	{"baseline/TR/roms/42", "3c7fbcb0527f83309982c1a607a75b5134ec2eec07f7fae1d7a67726d068a131"},
	{"baseline/TR/soplex/42", "354fbc71dff1b4249ddcd5f235ece09e6ae7501e8b9ee3dc8e70c4591ccfda41"},
	{"core-1/OoO/astar/42", "c9122f3c26c8ccb42d06042d7816691ff7907248a14d2c9c1a907a2e8b621264"},
	{"core-1/OoO/fotonik/42", "d42e523b47d1942f9b655795bb885f443550549b800da35c51255d0954b9e3f6"},
	{"core-1/OoO/gcc/42", "4b25fd5c2c4a19bb2d6d1e635ffefdffeaee32c404d716fca34d24c8a8bfdac1"},
	{"core-1/OoO/gems/42", "deeb8337634624e29baae50c7c94540f66be7c67deb79714aee34d070dcc6e37"},
	{"core-1/OoO/lbm/42", "d64d61bfc34017f514abc56f4067a2c8fe998710bcb17267d29833fabdd3f1f0"},
	{"core-1/OoO/leslie3d/42", "15826d694aee84af54325bb65403a5990e49df5d8442656617aeda5fe8e9ea98"},
	{"core-1/OoO/libquantum/42", "628e4a9dee86142947305a55d0b9d82f518610bbb600c1b2370a9d413513f764"},
	{"core-1/OoO/mcf/42", "985aa1cf6b945d8f1ff31d3cfc6791e934d30e521adaa85a5ffea588503ab6d3"},
	{"core-1/OoO/milc/42", "ad8d20a5db69ed0cebba065a87313788aa7e3a53869976b8f1829f7466cec9b0"},
	{"core-1/OoO/roms/42", "527ed02d2e4eb402ef001ce05100a3379135fe775e1426965338940d0dfcba38"},
	{"core-1/OoO/soplex/42", "7236db7541c01be5e097a641f42fde64220b5f8bad39d88597cc9d0568ed305b"},
	{"core-1/RAR/astar/42", "24a4fad7c11cf6dd07dddba012441ecc8ef79b671f06b688cde9aee1c818437f"},
	{"core-1/RAR/fotonik/42", "0807273510c5ab3ca47db0b7848714d74af14e759ae678e3fd41ba52601b3264"},
	{"core-1/RAR/gcc/42", "22f1c201fca8854db35b284a93b42d00405c538c60d698b8f1c7ebf847f400a4"},
	{"core-1/RAR/gems/42", "663198ff101f1b410431c9104cf60eacfa94f1aef11be971fff8c40fb4e47ef0"},
	{"core-1/RAR/lbm/42", "83993e4359a913488f9c881355fa395725782d61b9e713189645e5fb8fa8c726"},
	{"core-1/RAR/leslie3d/42", "950410e283d77ff06910e8157fe287616b53b8c1fcdb69bd21181845d44392f0"},
	{"core-1/RAR/libquantum/42", "e9204a12d1e3be18b55af9b06067b6ae7a5c7e66fde53a089adeb68f36e40b9b"},
	{"core-1/RAR/mcf/42", "fd4eaf5d4aaa7bc20eab960e79eba80289c99d6c2ea7a5d6568774072950c0a8"},
	{"core-1/RAR/milc/42", "00143a30c66b67c19a7af7d72baad178856c439d79b9e4746c2b64149f57d15f"},
	{"core-1/RAR/roms/42", "54991f23c2d44ee41ab70e1830a9d6493654e34624916cdd1f7f8734449e6418"},
	{"core-1/RAR/soplex/42", "6109834b1ffb94c3c1a1cefc42fee8f27e6636459d6505863e28dda9a751d145"},
	{"core-2/OoO/astar/42", "10990ddcd722f3e5d794f81aab290aee91fc95f4de32726cfc44b3eaddcfb43b"},
	{"core-2/OoO/fotonik/42", "b9deca5a80fee38b29c5e301f45a21d203c21bdc7484657ec143366ec0fc5fc8"},
	{"core-2/OoO/gcc/42", "a6c581c0ee789cc79846ce81c4dd40d1395b31632615ef8ac2118f505aa036ac"},
	{"core-2/OoO/gems/42", "e1e143b97c676f00f5f5300fdeb7cbd936ea9419ce0606fe291257f9fdcf8017"},
	{"core-2/OoO/lbm/42", "321a40f4745aaa2698654c25f84a1a655b7a4d34c3b9e2c4e0944b8682cf0386"},
	{"core-2/OoO/leslie3d/42", "52eb2890c5d368a6a6a66d92fa3de4ac1dc4d9bd5eb33bab8bb94c4f05b6847a"},
	{"core-2/OoO/libquantum/42", "e7dea9c9591a0e5b110ef25dd1f12a8fc88ed2f393f25a83eb2ac42e88db382f"},
	{"core-2/OoO/mcf/42", "af27ccd3d12e71db7a69e847a4cbc9170465ff1effb190fcdb79528b12c3d342"},
	{"core-2/OoO/milc/42", "8a79576e2015114c277aa8572cbe6fd48df677f97d0b3e19736881b23f0a3b63"},
	{"core-2/OoO/roms/42", "1473faee9aa019a5d68e8be81b81b3c2a12f7a4dad279f6757153c8af85df294"},
	{"core-2/OoO/soplex/42", "3aced7ab4e71d67431f4835267bb864007d72bcfc12723c7175edaa1031f18e4"},
	{"core-2/RAR/astar/42", "abbf1f7e934499dd09c3ecaf5aa7216b28055b04ab292e8dc25c15c83a24a029"},
	{"core-2/RAR/fotonik/42", "ae1e8c240a7995ce610196fb79aba9ea383a4127eaef904990a4f3da749afa79"},
	{"core-2/RAR/gcc/42", "cb96b8baa84f337a47f888ecb63ba3d9d3a08040411ae4755629c24ade99e1ce"},
	{"core-2/RAR/gems/42", "7547f270a3be58515dc0cdbcd0279a8cb4d827865f1f637a4bcbc3444bec5b24"},
	{"core-2/RAR/lbm/42", "2ed7efa0f6a75e5564e825168531552e4f9cf1919915783999800d92a1b826e8"},
	{"core-2/RAR/leslie3d/42", "6be7f34ddad8652fc7b878b57c3d8e9d96422e7bc9df3ec439eda1022c136e26"},
	{"core-2/RAR/libquantum/42", "57a32c0ece9de7973db54ca0c4700925546e65d8aa354893395301e3a6d979bc"},
	{"core-2/RAR/mcf/42", "7e4060f7eeb970d529887a3eeb5f145404278c5f00539ed745d4704d490e6e5b"},
	{"core-2/RAR/milc/42", "0de5eaa92a1b0cb20f052292a90cbff9880b35605804ee05966097dd1626493c"},
	{"core-2/RAR/roms/42", "3722b4b40918aa9b61d4a77d62d5f02cee1bafc298c6d9e72c5769e0ca9eb88c"},
	{"core-2/RAR/soplex/42", "f6fdf264a73e55532dd727902467a2d60fcf9393978cb1b74d5f6620436b0e9c"},
	{"core-3/OoO/astar/42", "0bfdc039b37501042fbf55c438227035f8e3173792aba506af35eae6939a8e15"},
	{"core-3/OoO/fotonik/42", "67e9e1c71604c58cc318cc18c181d8c4687f2509878a54d2afdf342eee502b68"},
	{"core-3/OoO/gcc/42", "8574fec1625456b9fb57172d07b9a05af98fe4b6f12e47c8b96c38be54cb0ecd"},
	{"core-3/OoO/gems/42", "220c6a213e0056ec3eacce5a4f0aee75ed8f9b1d70f91a43e90645101553ab54"},
	{"core-3/OoO/lbm/42", "e469e7aeb0bd84392950fac4e23f93573c533d8a30c170cb76e7dc4693d6c694"},
	{"core-3/OoO/leslie3d/42", "f46aed31ae4f9c48c7a65ec758d25fd8ef7bfb297952384e31aa7cbf04163b03"},
	{"core-3/OoO/libquantum/42", "ac067da295049c2ab61279734555d298eda915ae90c1ef48b5472c194e2e33be"},
	{"core-3/OoO/mcf/42", "b30276e7c72951de82012d4564843c48958a4d6247f368d4837cf2991c59acbd"},
	{"core-3/OoO/milc/42", "965f98c7ec00e8e360aa59b1e1860b859943a1e030b52c430f07c30b1c9df5f1"},
	{"core-3/OoO/roms/42", "446deb00f9318851c21a2c29ecac4610bc3612caf26fdb9bf5a01840bfa6a385"},
	{"core-3/OoO/soplex/42", "338371a0ceb0f57760ab2084f52bac462caf101efcc84936fa5b64a33af759be"},
	{"core-3/RAR/astar/42", "c2e174d0775e881ecafbf482adabe468168f755c57e3cc708bc0cb5d7cde07e8"},
	{"core-3/RAR/fotonik/42", "134d591ca4149fec5a0d3a919b04c23ef6b79f33be1a2ab24c9d1e15363e9419"},
	{"core-3/RAR/gcc/42", "dcf55dcc11a158f2d5ae1fce1196ca7a96ab44f1fbccf72078a3db323021ace4"},
	{"core-3/RAR/gems/42", "e8a43ac04e4bb51beafd61f6f29517a12edda42403498628d44ddf27d0925e34"},
	{"core-3/RAR/lbm/42", "9e550058fdf67c5c829ea7da96d7bf09ea69049f41ece135f783c804dc6f0f4d"},
	{"core-3/RAR/leslie3d/42", "67ace352b3dff465ddbf4f2ac1556bd1bc0741cbe4ebe352e5309c3e69e645e0"},
	{"core-3/RAR/libquantum/42", "b7559f34f5260bbf313868a095e403ae94e7b330cd2b1f32187bf32f7e29b84d"},
	{"core-3/RAR/mcf/42", "f9b6dd79ebd0e34e7464ff71aaa8afdba8f6f105bcc77bae3cae8c4baf93d350"},
	{"core-3/RAR/milc/42", "da100a8cd2d39675091fb0e40a4ccd5e3b78c95ed00a7d3385bb5294901ca2cf"},
	{"core-3/RAR/roms/42", "6521853eb5667961d7be0f1e057f997555d718312bf9446020dbc1b3f2236840"},
	{"core-3/RAR/soplex/42", "8b782d994345e22f5fa360dd890855018d8ca39aaa14c9e4bbe7ab7d6c848617"},
	{"core-4/OoO/astar/42", "5d67aca8faa232ceb6078d1f5e25b8ecb6800f39a10ff5abfaeec7cbef038ae8"},
	{"core-4/OoO/fotonik/42", "0be2950ee59b9a7582ed7deb323bf5c087d9b13b71a0c395f76dcf7d9ab040f7"},
	{"core-4/OoO/gcc/42", "33728b11e224b23d089676875e1ff1e6dd3b968549e94fb9fa66f5f24872b03a"},
	{"core-4/OoO/gems/42", "968b1cb4d4a23ff3a10bf662f4361b6d98b4e9ff2b3ef93b47efa5982a99a203"},
	{"core-4/OoO/lbm/42", "17be36dc6bf237886ede3d4377866a0c0e0c75dfbdd87e5c96576bb8c99fd549"},
	{"core-4/OoO/leslie3d/42", "0ab141de855944d00969d5ce50065434c043600c34ffdd31cf279fc9f1834753"},
	{"core-4/OoO/libquantum/42", "50fad0cd75bd630b50132c8662859fc1253b0e719b45212b16e4ef961fbf3833"},
	{"core-4/OoO/mcf/42", "31472e064c3d4f8e4f02eec927b2c871f06644b70bd9e351b026de8a0665f3a6"},
	{"core-4/OoO/milc/42", "c1a307be37cade28641a89043d4d390c00624b62f1e4273a0cacac61012d0ded"},
	{"core-4/OoO/roms/42", "496b62d6a301748d5e0cdfc253391847fd0512cc2d897692d282a22273d391bf"},
	{"core-4/OoO/soplex/42", "efc7b0d0ef27298792fb8e8931e5d6b6b7778df4943a4761e4372c0225b917a5"},
	{"core-4/RAR/astar/42", "9a2b4cab82665fbd344a3733e7dca175f69eb114ad775470ffec451b62897446"},
	{"core-4/RAR/fotonik/42", "18ecc8b3ad211ef0890ed314477c2ea590d1c33037adf8a0f6aa8e94a7dadeba"},
	{"core-4/RAR/gcc/42", "54c01c597548fbd4100888b9257025706b2715a2f8860e12ecebe86b5f2a45b7"},
	{"core-4/RAR/gems/42", "d2f128520cb23c1ab76c0f6f60c1925272e8240bd9d476836bd232566729d86b"},
	{"core-4/RAR/lbm/42", "5e5bc8459b996e0d5eda0688b33583c98c4ff09717443f6efae8849c23013495"},
	{"core-4/RAR/leslie3d/42", "4df5ccee6c7cf876b411c697288a353f760a44b6ffdf984b6b85207c0e1ff46c"},
	{"core-4/RAR/libquantum/42", "59a925e46036e6fa9278711ab537abc750fe07886277515815f1517dd4efc3d6"},
	{"core-4/RAR/mcf/42", "f7ab9a4e44a360ebeb33657d671b98c441b80173732039e22e1b40c454803d4a"},
	{"core-4/RAR/milc/42", "670c10b76b53c5d3ad33fc7239f309acef89ab48f329e3579c5fb5a0c2666b36"},
	{"core-4/RAR/roms/42", "258d2d4a15d5975cddaedeec20cdced465974272e37dead56bf2de01eadee906"},
	{"core-4/RAR/soplex/42", "1a8aa648c1188e5108c5a90a00689d913686fd34063384ccf03e8471795e03ac"},
	{"mshr-10/OoO/astar/42", "d78d441421d2ec2968371c2ee35fd9fb9adc8ec5c7d01b7e4636faf4a137379d"},
	{"mshr-10/OoO/fotonik/42", "67826ff5b509ff0f6c414bf04e3f25bb24a9de5190f4077b265335d45b983835"},
	{"mshr-10/OoO/gcc/42", "fe3c5ed9b62710c0caac95f5f11d006e847812997a3017df65f9eda3133c6d71"},
	{"mshr-10/OoO/gems/42", "88c7ec5b22690788684f76da8b21758cd1d344e7e48f9d8c17d193202c7f71dd"},
	{"mshr-10/OoO/lbm/42", "22d5869678c37a29b74e8243df1b82dcc310d1e6723f39f5d2e96ceadec4d74e"},
	{"mshr-10/OoO/leslie3d/42", "aa2c53f6399266581956649be6918af7edfcfaa553c3b20c487f427c670b9565"},
	{"mshr-10/OoO/libquantum/42", "aab0f3ed709611271cb323e576c436a16dacac4e38efd47c75d85c674fcae721"},
	{"mshr-10/OoO/mcf/42", "11ce412c961c861a5b50273f90eb4aad5928421bc02902c53be24ad6cae721ca"},
	{"mshr-10/OoO/milc/42", "b94b55c0126e6ba25a703b789e5173b76ae38f9cfbb31240b4b3401d8e515e34"},
	{"mshr-10/OoO/roms/42", "4be7bf43b19e2a5f0e675f3a8c8d7bafd66e1b7640b8d7716bbd0bd22cb96877"},
	{"mshr-10/OoO/soplex/42", "9168b6bccca13de80288f39f7b223b4b2bfd615bdf83d7fabd5bf1886480424a"},
	{"mshr-10/PRE/astar/42", "460a0e3bf977aa8c11deb2fa83ecb6caee6d590bb2463ba2baddd2cddcdf28b4"},
	{"mshr-10/PRE/fotonik/42", "d542d2e84c32473b3c8c243b5c05f3b333a7432e18b965d8584c4bc2a7519da1"},
	{"mshr-10/PRE/gcc/42", "58a1506373328bf281eb6e3a795f8d3590ef81ff6cef4e21382064affdc771ab"},
	{"mshr-10/PRE/gems/42", "9fa395ded9d3d0be974971289779d751fed3adda370967b19d5d80474b52ea30"},
	{"mshr-10/PRE/lbm/42", "a08963b24089721e99a1d28802ca0d0d54c85cf4e20dedba0fc16c4c0cb53452"},
	{"mshr-10/PRE/leslie3d/42", "b666c5472d24839d4fd219da7fa921bbb6e8788b8ee55fe70091b7ecbe5dde84"},
	{"mshr-10/PRE/libquantum/42", "c0f45c60b882fa944f168238f7929574dc2515c8811baf479207e2662ffcf4ab"},
	{"mshr-10/PRE/mcf/42", "2c33f1abac5615bb4bf7793e895493b810da2b3762ec7c1c100b8ef175bf30ea"},
	{"mshr-10/PRE/milc/42", "2ed2dbf3118b476cb23a25bf88fe23a2df94b386cbc4f0d984425f498720c790"},
	{"mshr-10/PRE/roms/42", "524c43612ab00983093f88b7722d47b299a9c804827e6476ac38176e20f242ad"},
	{"mshr-10/PRE/soplex/42", "6c954b5d8938277321340c678645b37472dff9b1664bd858ab16d06428b760d6"},
	{"mshr-10/RAR/astar/42", "ade7dff518f33ed7642cc4c5a87d417a4d493844cd9349634a8714cd5ea79b63"},
	{"mshr-10/RAR/fotonik/42", "bdc7cd29b0cb9824ccec4c4d31a53f19d26f5648a86e56e10b28286bae44b910"},
	{"mshr-10/RAR/gcc/42", "b9c532501c4a43e5a2e249b6d2a08c0a3f5ba3bc9449e5c4b5b5959c294a3eac"},
	{"mshr-10/RAR/gems/42", "a1f047c1a588ebc729cd2859c3b52444e6783d2e5b28a444258c5fd3aafef4a0"},
	{"mshr-10/RAR/lbm/42", "438732a0135a1c3369dc7e4c4a4e187a702ac2669636b00ac6cddcfdf1068446"},
	{"mshr-10/RAR/leslie3d/42", "c9c87cf4f7a7afb0a93b74dff0686fced1c91e6ed27464801fb2b0bf294e07f4"},
	{"mshr-10/RAR/libquantum/42", "35ff253c82f87ddf607eebd93965fd6ec23dee54b5a9273eb33834af405839da"},
	{"mshr-10/RAR/mcf/42", "26e951366f7fc21e6daa1dc223802bca90be86c96f59236b8a42c5e0337c2833"},
	{"mshr-10/RAR/milc/42", "926db56a165094974a27a815aa63d305fef92f1876fa8c71696095c87fe25667"},
	{"mshr-10/RAR/roms/42", "85626b9a66e6fe172820bdec459f713aea59e1ad4d83d18d68e7427a7c62591b"},
	{"mshr-10/RAR/soplex/42", "d8fa7d08c30a4eec59d60cc08d1b267b4997ae73b58e43dde937dbd486a32f37"},
	{"mshr-20/OoO/astar/42", "d6e5896d408f1d480f89096e2ddd79c69fa7bb3c02f57bcfdd5ab7850c0900ca"},
	{"mshr-20/OoO/fotonik/42", "98419cb0b1510dbe2b93e95c950a62d33904300a75d40c37f227250eeac96df3"},
	{"mshr-20/OoO/gcc/42", "68c5c8cdb99c1bebd56939ee3304308a60bf0f67b09875a3bb000b58f9485029"},
	{"mshr-20/OoO/gems/42", "ddf50c49f93d56790f7facd1a8fadfb57c251fba2c1f98ad712206ffe8259f7c"},
	{"mshr-20/OoO/lbm/42", "2677e0a7fab5ba4f7671a04dd0ddcf0f5527579f3a7dd5937a88f04a2cd2059b"},
	{"mshr-20/OoO/leslie3d/42", "efb26f890809a88664347e8bd75220a1a60db603dcd5f63f09b1f55b3f190098"},
	{"mshr-20/OoO/libquantum/42", "a31ed208c42657fa33ee2542037ecf7496e24a0e81ae2f3742b7be65cfc11077"},
	{"mshr-20/OoO/mcf/42", "abf35ecf446953ca837836423001d240431dd8f9db09086269de411b889a771b"},
	{"mshr-20/OoO/milc/42", "566d81b52881558a7e5e36aa77e59f8c05188b9283beff27ceb723ee122311ee"},
	{"mshr-20/OoO/roms/42", "51ed55b297ab9bd51df23bdf056623ed07848240f77dfdf95794a7b92eccfd88"},
	{"mshr-20/OoO/soplex/42", "c2bb0170a1f85a0ad2cc9c3511d6366bdcbc027aa63530d0a15318f929b91d26"},
	{"mshr-20/PRE/astar/42", "3d315d8a3fd1ba0fa6d6173976ea22292b65fc736763a067c228d8371c53a274"},
	{"mshr-20/PRE/fotonik/42", "aa2cfbfa77cc6a3de5c420d92749842d6c1675076c9417449600bf8b51ae1741"},
	{"mshr-20/PRE/gcc/42", "b201fb30eb1bb92aed5185278481fd6189f85af4ca0640088d6e9752b2547fa8"},
	{"mshr-20/PRE/gems/42", "e4eddf6cdd1700d573452c786a7854cf2b7cd4962d9f9753c584af8b72c1afcc"},
	{"mshr-20/PRE/lbm/42", "b7cf8d712ee79f0ccd49b18c34afdfdb0173852ff97afb772558115cb3757d46"},
	{"mshr-20/PRE/leslie3d/42", "304ff6f21c2de0e66f5887a4d3cbe3e2984a96eb8d52ae531067f52f467513a8"},
	{"mshr-20/PRE/libquantum/42", "d800b5ca5892f67144cb94cde6bdbe56ba65fa359fa9e4b3fa72594df1113fed"},
	{"mshr-20/PRE/mcf/42", "67b0579094c2de589debc47d05306d4d2e9e35bf8076541c04dc3be4c0840bfd"},
	{"mshr-20/PRE/milc/42", "c8f77eaa53cc8e0a23eb6dcfb4c1bc4ff22ccd9d0bdef343238d112b4ed8b1a7"},
	{"mshr-20/PRE/roms/42", "63e57fa92e75b99db980b26c50d0ed6bcf2a16394511ffd72ed8686f024a1eb7"},
	{"mshr-20/PRE/soplex/42", "137ea7283e86dcd11c8458d848542b349230e917e97dd696d8b288d53e0822fe"},
	{"mshr-20/RAR/astar/42", "dec5a804bd8a7cb781b6277920a14b2ad82f4da1c9840d3decbc88155da83da6"},
	{"mshr-20/RAR/fotonik/42", "5575f60b0c7910fa60c97e77ad38facb1121eb0f72482b781f2d92579e7bd2b8"},
	{"mshr-20/RAR/gcc/42", "f34909a541ce1524d41988fb1f75b56e9848e07d95e878e66fa6b19a86b4ee92"},
	{"mshr-20/RAR/gems/42", "39f68a21a8c8c289f1612a0ada7458f21ce58dd5fe774199b40daea1f1ffcd13"},
	{"mshr-20/RAR/lbm/42", "d519c6d5fd9330fdfb976bf4a7e9b37cc7c25869ba4488f5cb0ecd46b2f3a4f4"},
	{"mshr-20/RAR/leslie3d/42", "ddccf03b5aa3b1566df1ecde07e182b61a41e62908d8bb0b8b4439e5914373e0"},
	{"mshr-20/RAR/libquantum/42", "8143f32d72c7422f21383096f4ad161f3341a64914c9745ad57be608547a7c19"},
	{"mshr-20/RAR/mcf/42", "d04d3e2dbd92eea062d736e42d1dc3d463b979b395a60ce240fdb082b195c90d"},
	{"mshr-20/RAR/milc/42", "5c7e7309c715a154c821135529e5900f81fe1ed6cb751f1cf998b83a945faaaa"},
	{"mshr-20/RAR/roms/42", "9f9f4e1893f307991394596427b7917c0aa8cc6d569acd769985054899b4423d"},
	{"mshr-20/RAR/soplex/42", "34f5c78db924fa8f94f5fcfb1fd8df3c86f0b88b3c732a9ef0324144b273ba60"},
	{"mshr-40/OoO/astar/42", "60948b8314b54ecf274b226f8e573b94a7936aad4ff40318854487acab4c3424"},
	{"mshr-40/OoO/fotonik/42", "afb5827c1b278ec5cc757b60efb304d9ea4f4fe8f5efdab4e0bbdf7d22363dc4"},
	{"mshr-40/OoO/gcc/42", "83c8a6f4b96133eff4355ead9e3b2f9d30ca2eec539e1459b8042fb77a2c0dda"},
	{"mshr-40/OoO/gems/42", "5d56d27cce1850b7062a72b72348af927cf40d7a0efa035e78ae855e86240fa1"},
	{"mshr-40/OoO/lbm/42", "2c2b54c835c3b71b0bb0904419e44a4f0ad1d53bf89a60bce1a6874e1d11630e"},
	{"mshr-40/OoO/leslie3d/42", "b923394bb2f10ca5190ae79c13c3a9a8d3ced7364adee86023f5fdc6a31fc966"},
	{"mshr-40/OoO/libquantum/42", "a5ba7f1500f710a18fb33345148d86826bca184b718a9aaa7782746522633d25"},
	{"mshr-40/OoO/mcf/42", "48b6b4e08f50b286a065271161ef06d9c696a849399ef69460be98e1cccb5d9b"},
	{"mshr-40/OoO/milc/42", "c956187ac8e8aca0ff5bd22effe74e669741bd8fbe51e8aba0d172fabe9325f6"},
	{"mshr-40/OoO/roms/42", "b551788b041d6e3bce6799e2aba22a54777803340c6961b5ee9a45c976ec84f1"},
	{"mshr-40/OoO/soplex/42", "b5e2f704b4559d773421a0649dfc74e1ceffecf7743a4198d0b65180721e8827"},
	{"mshr-40/PRE/astar/42", "4f97dcb8a9fa63906a267a20739ba3e9cbcb37acc19eb6c7ca2f86c400cb23bd"},
	{"mshr-40/PRE/fotonik/42", "eb51d0e098e37489c388f2b7cbd446ed9193585b6cfead0831c4b39d3c285af1"},
	{"mshr-40/PRE/gcc/42", "0e64cc074cc521a00081fac88b8ccda3badcd5086d008c68407da82d8e751c75"},
	{"mshr-40/PRE/gems/42", "db1048c62b3bb2ed8254742e2e0a4e30d45462651b29284a53f07b9b1ae9b3ef"},
	{"mshr-40/PRE/lbm/42", "483e205970cfb49437fd0603acee84c75c2e9adfffa3841ece2ed8d02dc7c652"},
	{"mshr-40/PRE/leslie3d/42", "0291f4c57ec25c5c3316e7caa12d2dfddbbf3320f6e4b2295b8955e9885d0001"},
	{"mshr-40/PRE/libquantum/42", "3d809e639a6e1b4ae04b8c11b89af2103105f65d8728dedac2563bd14dbd2133"},
	{"mshr-40/PRE/mcf/42", "9ed92e13cb3ecda8121023169be9657463e8e4b17df95eb535f99891a6aa89bc"},
	{"mshr-40/PRE/milc/42", "e68907a29f32a75a8c5749303c7838476b0e30daa241f11b8e052c1d38bbd5f5"},
	{"mshr-40/PRE/roms/42", "6da9c57f37820cd95651a0158f30fff67dffc95b4ffd7534de5510b14da3de0e"},
	{"mshr-40/PRE/soplex/42", "efdb328f185c2a38e895ec48d728552319c5b3930f3f39586baf4c6a609b197c"},
	{"mshr-40/RAR/astar/42", "9031cd31c6ff5e32defd39fc87da86ac879f56f7c793783bd8ae062c39093768"},
	{"mshr-40/RAR/fotonik/42", "1a549cdca76accb518f531619d824e747434c32a0fd7350b1ed473458d265a58"},
	{"mshr-40/RAR/gcc/42", "bcf5484c10707747b56a3ba1ec5b262c875f0e2aab886c1cd8b31b553f504a7e"},
	{"mshr-40/RAR/gems/42", "c375fa012091f2af7f683683392bb1292d04122d0657bfaacba63f718136df29"},
	{"mshr-40/RAR/lbm/42", "43fb86305e5a7ee49307f59c935a2aaa15a8ca555040ebfc387d6d009dc5b9ed"},
	{"mshr-40/RAR/leslie3d/42", "900ba769cf85a1762f70deb2343b1a9d9f1891488384d072f485f41904f93e8e"},
	{"mshr-40/RAR/libquantum/42", "3048d28beacc4bc15361ac2869604ccda5f2549ac17c2addd03ccadf298ee36d"},
	{"mshr-40/RAR/mcf/42", "63a8973b73b9807fae5f519813ce8a16add0b2f3978c294dfbf5302376311b35"},
	{"mshr-40/RAR/milc/42", "8b1610f1b5592ea107e4ec2bb813f2fce2f60eeedca36a08bbf126221d370ac4"},
	{"mshr-40/RAR/roms/42", "2742d52399c0f8e296c8250a22a278d2b519463d7d564ee7a7df21848ba905c5"},
	{"mshr-40/RAR/soplex/42", "c64cd310f34f7d53582735209843c21dda6a2914bb07935061364b887a889947"},
	{"timer-15/OoO/astar/42", "ae568954de5d9b90f0c4b2be83309d33ccfb2a8d7c5b94cd8784fea0e1db782a"},
	{"timer-15/OoO/fotonik/42", "b6085fc6609a3f62ef82f983bc42423f91a3af11a6b3a49124de14dc83ee8be0"},
	{"timer-15/OoO/gcc/42", "adc746bcd7755e3806985e865c744ebaa21d38d6dbbc1188da5a68baba6c9f50"},
	{"timer-15/OoO/gems/42", "f3b8c3d6d6c69f3decb259e3c88a52e6cfbd4e101bcbc611d4f0183196d55e27"},
	{"timer-15/OoO/lbm/42", "301fe9ebe7ec991d898264cb139e1b18c22ed469981faf405a986f41153c434e"},
	{"timer-15/OoO/leslie3d/42", "0a85b017e0c3fed710422a86bf373d26d989bad73b577d30ca9a601830e06017"},
	{"timer-15/OoO/libquantum/42", "78c49d4c91e32cbfdaed880601f9c89ca9df2d0ecaace851ea385b2db0970b80"},
	{"timer-15/OoO/mcf/42", "5c1af26aa4d4b7e85efc1cb0c96e7b2c335249e052c393ff4c650add04feb4c4"},
	{"timer-15/OoO/milc/42", "cdead4a08f4d037fd11dae65a878ae2d6452153e74c7900e558d669aeb945ed9"},
	{"timer-15/OoO/roms/42", "0a0a5a026251197d6f3ff14252941f83f15ddab9bfc6aa03c5390607a40f4104"},
	{"timer-15/OoO/soplex/42", "e9db36ead4147ea47420e8e011c1a683930f58edb1829f2727c4d76b498901af"},
	{"timer-15/RAR/astar/42", "1ec8813032f9b4c3d90f492fc4b092a673305fbae408d29f6eb2aae67ddcd0f3"},
	{"timer-15/RAR/fotonik/42", "dfeae9444aded3cb3945091cd0c76e6ccd6134c492a82910cf28099ebc5e5d3a"},
	{"timer-15/RAR/gcc/42", "1a21090e7ecaaad126b05c9c1b3199d1113058766d5f20455356ecee2a0af933"},
	{"timer-15/RAR/gems/42", "1811970d9758817b160826d10c273617ac1fe835eac16075fc02488560129a5a"},
	{"timer-15/RAR/lbm/42", "0b8fb640c0f45e20b80dfb9a60fdc6c6f9e836f50782c3899cb828d75d130119"},
	{"timer-15/RAR/leslie3d/42", "c18bd490f42bffb4a60a4382213f79a89ace2df25d5bb89b0997140dcc83a1c8"},
	{"timer-15/RAR/libquantum/42", "d5825f8b8d06a9b3090c3fb52105d9cb97b10a773e581eb7fddcad7ab8b4b01e"},
	{"timer-15/RAR/mcf/42", "4aea1138f72b68b6b2c6f928200dd9d5c10ddcdcc0e9daed35da0906066db212"},
	{"timer-15/RAR/milc/42", "d3974f3b572d7beb41546792aa4cf9251bbe15a86014d1158979127ae109b3b8"},
	{"timer-15/RAR/roms/42", "c7bd23218d0b4093c4ec07535949cba45fbacaa25968b6a68013db939a4fbf11"},
	{"timer-15/RAR/soplex/42", "9c1d468aca933a04f771d033146c7c3c9b889152d69ee79f64bee8b5ee499d60"},
	{"timer-31/OoO/astar/42", "9ce7bab49537c182d3615b9aaf60e33849b35ddfe06d2c31e1ca76835e1bc8f0"},
	{"timer-31/OoO/fotonik/42", "6c58c20a593f4a4f27c83054cf63b3bd80a8a5f643b79daff00d49df089d3560"},
	{"timer-31/OoO/gcc/42", "0c44d1244eaa5ad770c2d34fdac586ae5ed4e1f6652fdcb25e8b4190eafce53d"},
	{"timer-31/OoO/gems/42", "49b2f38b9731932d2cbc49bc4f36700f5e3ce88731eda758e1c68997a2d1ce4c"},
	{"timer-31/OoO/lbm/42", "2da4592d943e68c327d5efcc20306ce3d3ce171f7f9dbcd513fa4a6725b3c839"},
	{"timer-31/OoO/leslie3d/42", "db69ff83d87724c47fd5af6591ad03eb67dbb6362f60523aca16f1ad21868350"},
	{"timer-31/OoO/libquantum/42", "fe11f4417559d2d3935a98d6084dfc2959569ae1ce7c8f64e32a9b031cb25340"},
	{"timer-31/OoO/mcf/42", "d412779e227f6775357c9d344902bdcf7de4cc581cabb89f8e30bdc5bf18a97c"},
	{"timer-31/OoO/milc/42", "e3b35c35dbdf17784691c2fe2c0429a2e8c012a0da7b69f1417761c5ad6c605a"},
	{"timer-31/OoO/roms/42", "8600532c8ad6c6f0bd1471b966c1a5ee2eda589888f19b7c7c048d135dc53115"},
	{"timer-31/OoO/soplex/42", "b8332fcbdf22ca7bc9ffd92cfade6ff66e5b0683c3cf40cb75507548f4fa3b37"},
	{"timer-31/RAR/astar/42", "fbe7ff0bf73fcece6e0c1b02c303191765b78d57bbef85321e0cfe275dc57873"},
	{"timer-31/RAR/fotonik/42", "30876128f5d4a5526006d568a6418ba6d2a48c032e1ed74832a28b7e6249aa20"},
	{"timer-31/RAR/gcc/42", "cf9a0d24bce28054ff6089393fbb3b50693c909bf666c14a4ca3dd81374ce750"},
	{"timer-31/RAR/gems/42", "051a46dd02bc18a74de8fe014b48482ad7ca8dd806240f2e8dee4e1646ff1c6b"},
	{"timer-31/RAR/lbm/42", "af5756a26346f9321ddd86a37a6f12665e546dd13dc157fa927bcedce91c40aa"},
	{"timer-31/RAR/leslie3d/42", "30cd65f615f2c57a015da3790d850ad92f4ba8cbe251b913617a473d3143059f"},
	{"timer-31/RAR/libquantum/42", "0c2f39553c68bc99d4115189e61f7c6603fec0cad0998ba7325d7d94b7f0d181"},
	{"timer-31/RAR/mcf/42", "27a6786e346d8d1ed3bcf79153a0f9da10e5e732aa0965f37628490816b190f3"},
	{"timer-31/RAR/milc/42", "760da44d8e39e593fa38c31ce2f8cb0f6ad85339b74dd9137790caa172252c62"},
	{"timer-31/RAR/roms/42", "1b1c900818914f4e12a3afe0f895a7ea7edc721090d2cd79f3779eb1c965788c"},
	{"timer-31/RAR/soplex/42", "78994646b0568f5aa6dbfa42d636cf499a3d69c480d1ec0e7cb4ac3c92d9a537"},
	{"timer-63/OoO/astar/42", "83988070e674648c482170b50e35b155fe607176232d3bbd31ce7a8e9c3d541c"},
	{"timer-63/OoO/fotonik/42", "fb3ba86a01f86ead5e1d08c6c7f1ed4505386e520647c590d025aa64fc9c2020"},
	{"timer-63/OoO/gcc/42", "3d345cb58033d3bc63ad21326aed08b6b1704f5098c0ea3e8c2c1326686030c6"},
	{"timer-63/OoO/gems/42", "c788938ed4276a1e7c1481b02cf534afa6ad8a05bd8ffc44cfb266683dbdda56"},
	{"timer-63/OoO/lbm/42", "86be3f3c6687707a969f4cf713dfe0e4ae73d4aec24cea0934e005cadfa3cfa3"},
	{"timer-63/OoO/leslie3d/42", "3515a144f478cc0c8230e60c740f7a5a86490cbf3fd9f4f84f1e9657dbecef9e"},
	{"timer-63/OoO/libquantum/42", "043848a0ac33e73777ebfadd7ae7d1ec3cb20a514b1956586962959302b20e0c"},
	{"timer-63/OoO/mcf/42", "de063e50ff831ba20ab77f42f1965073bc51cad8babf1b5360211591bfbee327"},
	{"timer-63/OoO/milc/42", "4d12c5322b344f98e27f6abd51e13961424d53c509eb019a7c657202303473a5"},
	{"timer-63/OoO/roms/42", "9efa856dba6162acdc9f3a3374fb2a414119059282226f66c9446d4db512bed0"},
	{"timer-63/OoO/soplex/42", "d4f75011dff426a36813a3f57e89f5fa0e20929398e86a4055038a99597c0e48"},
	{"timer-63/RAR/astar/42", "233189e4ca29056f0c0514cc2138eaf3ce531ca6ee3ccd20d3207e595eff5ab5"},
	{"timer-63/RAR/fotonik/42", "4e991747412fe259aac7226e98acce36b822d2f6118e276118fbb2ba067a720b"},
	{"timer-63/RAR/gcc/42", "adaf306340200ed288e98f2ad09712ee2815ff9871a95653372466cb2191216f"},
	{"timer-63/RAR/gems/42", "e67eb326079594aa84bb7acfaece1eb13af4603de5502dfd037d05e3cc75e9f1"},
	{"timer-63/RAR/lbm/42", "3c9ea97480178108663fccc2cdcefcd64ef77622fa4595c9a8dc1637dc0aa6d3"},
	{"timer-63/RAR/leslie3d/42", "6b57e8034efc4f0babdb334d5bd5e47c645aeb683482879f4d18270063955d65"},
	{"timer-63/RAR/libquantum/42", "35261cc2618d7235eb54d93fde3485a93f9835dc521b8aad4db2f9192e398bdf"},
	{"timer-63/RAR/mcf/42", "2e6f52b64608cbc27755ab14f1dadb88d94018ca728ec3a58761fd31c04509df"},
	{"timer-63/RAR/milc/42", "eb06501bf4414ecf24da59c364938522f5aecae8f7e6e6e25df9e47eeda2e672"},
	{"timer-63/RAR/roms/42", "a2e827269b40a7d25f7d6fac977ca472b881c7b31662d8f1c6e2640d74bdac63"},
	{"timer-63/RAR/soplex/42", "37ca7c68bbd50305ae1793defdd811c12922a1be14a91ff0798d5bde167b21bb"},
	{"timer-7/OoO/astar/42", "9cd8206ee655d494b7ce8dc07a05608c4a820bda5d845a6df817ae8390d3dc22"},
	{"timer-7/OoO/fotonik/42", "29b0b8e921e381153ead51d8165c35b435115e0b53e78404b71e72f8321b2971"},
	{"timer-7/OoO/gcc/42", "ed7ad2884206c1c945054ab55d10ca9c9296435ab226b1e08d47873a78a474cf"},
	{"timer-7/OoO/gems/42", "df7a215b44c6aa2c65290f492381ff7c1fb9ec84c3d14f238a9809edef5b19d0"},
	{"timer-7/OoO/lbm/42", "90711ff1638af3052715340c10b7d422433f9ed0edc7b09148d39f3f9ea09d64"},
	{"timer-7/OoO/leslie3d/42", "0ef16490929bbd8452fae2484b32c31552b2eb14efcf58876530ecd0ac50daf4"},
	{"timer-7/OoO/libquantum/42", "d4c2cfd4f91437ab9698979936146ab521483be7b93a22b68ab0703db40c4b53"},
	{"timer-7/OoO/mcf/42", "d89e30f83f674df14edbaa7158f715fc4a59e09806f6342553254ff0bac13717"},
	{"timer-7/OoO/milc/42", "fa55e6a13fa99cf4d361740954777032070b567358ec901c598684d716c57aa0"},
	{"timer-7/OoO/roms/42", "e6e122650afc8287fde96144b53c3e4ab9a1d692e26f08957a6754ea6fa0dfb8"},
	{"timer-7/OoO/soplex/42", "3bf8fea863ca80971da39d45cc36606b9bf4c4b4c4c3d90d9d8d32782eda9488"},
	{"timer-7/RAR/astar/42", "3aa2ded57121da6be104da2df3a164b0933fa86c499c92a1d22d8f246d2a09f9"},
	{"timer-7/RAR/fotonik/42", "d53ca45f59d82726a6e5f59876f1050117688c36689919a64e738217f55803e4"},
	{"timer-7/RAR/gcc/42", "2b4da4387d989d43b801be3990244cf1c7a3e43622b19dcd9be1ae360c709e4e"},
	{"timer-7/RAR/gems/42", "08be0a370759bd9ff001f9b6a7885bd6424b50d1488ebc9349b87a7df5c7b275"},
	{"timer-7/RAR/lbm/42", "fea4cbcc5bd5416c3c7c0e5199ea2e2d8e9bac9d98ed08d6695fed303acbeea2"},
	{"timer-7/RAR/leslie3d/42", "73089a48374ffe4496fcfbbc95845499aa5bc65242fe93b1d602669e8c9804b7"},
	{"timer-7/RAR/libquantum/42", "8dd989d00f5c21d5319c3d8a6d3e784b44988b4acd86e574a0c780f96174f269"},
	{"timer-7/RAR/mcf/42", "8914045ef3c3ebd65e425f25315fdcf0ac7ca7c63fd8bf3f4677b236f8cc3da9"},
	{"timer-7/RAR/milc/42", "d3c6ab43b452be8da3229b9b16a418a1ca5cc3b0a86fde31c43ae08198e6f76e"},
	{"timer-7/RAR/roms/42", "ecfd122c9dfa86ad1e398574a82d3fad9c86ff98a783f6621433959f9bd16675"},
	{"timer-7/RAR/soplex/42", "b4f487e7e37b1f37cda15a289995fd7484cee2869c082b61db7ea9a4f0bd757a"},
}
