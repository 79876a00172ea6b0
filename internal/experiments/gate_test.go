package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"rarsim/internal/sim"
)

// TestFigureCells is the results gate: it runs every figure (All) at
// seed 42, 25k measured instructions after a 5k warmup, and compares
// the SHA-256 of each cell's Stats JSON, CommitHash included, with
// figureCells. The tables in results/ are rounded; these digests are
// not, so one extra cycle on any path moves the cells that take it.
// Every core, scheme and benchmark the figures use is covered: the
// scaled cores, TR, TR-EARLY, PRE-EARLY, RAR-LATE and the prefetch
// configurations included.
//
// To re-record after an intended result change, run the test and
// replace the table's lines with the "got" lines it prints for every
// moved, new or missing cell (a missing cell's line is deleted).
func TestFigureCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every figure cell")
	}
	var (
		mu  sync.Mutex
		got = map[string]figureCell{}
	)
	eng := sim.NewEngine()
	eng.OnCell = func(p sim.CellProgress) {
		blob, err := json.Marshal(p.Stats)
		if err != nil {
			t.Errorf("%s: %v", p.Key, err)
		}
		sum := sha256.Sum256(blob)
		c := figureCell{p.Key.Core, p.Key.Scheme, p.Key.Bench, hex.EncodeToString(sum[:])}
		mu.Lock()
		defer mu.Unlock()
		if old, ok := got[c.name()]; ok && old != c {
			t.Errorf("%s: two cells share the name with different Stats", c.name())
		}
		got[c.name()] = c
	}
	cfg := Config{
		Opt:    sim.Options{Instructions: 25_000, Warmup: 5_000, Seed: 42},
		Out:    io.Discard,
		Engine: eng,
	}
	if err := All(cfg); err != nil {
		t.Fatal(err)
	}

	want := map[string]figureCell{}
	for _, c := range figureCells {
		if _, dup := want[c.name()]; dup {
			t.Errorf("figureCells lists %s twice", c.name())
		}
		want[c.name()] = c
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
			t.Errorf("%s: new cell\n got %s", n, g.line())
		case !inGot:
			t.Errorf("%s: missing cell (delete its line)\nwant %s", n, w.line())
		default:
			t.Errorf("%s: cell moved\n got %s\nwant %s", n, g.line(), w.line())
		}
		moved++
	}
	if moved > 0 {
		t.Errorf("%d of %d cells differ from figureCells", moved, len(names))
	}
}

// figureCell is one line of the results gate's table.
type figureCell struct {
	core, scheme, bench, sha256 string
}

func (c figureCell) name() string { return c.core + "/" + c.scheme + "/" + c.bench }

func (c figureCell) line() string {
	return fmt.Sprintf("{%q, %q, %q, %q},", c.core, c.scheme, c.bench, c.sha256)
}

// figureCells holds the Stats digest of every cell All simulates at
// seed 42, 25k+5k, sorted by name (core/scheme/bench).
var figureCells = []figureCell{
	{"baseline+ALL", "OoO", "astar", "985a0ae65583a45abb2840b70d1e94091981f33ab8f03bdbdf42c3d1c7334973"},
	{"baseline+ALL", "OoO", "fotonik", "c0f0cecf011e69e2c557cc32730d28c08df1f38212100cba71c1067bdaf6f896"},
	{"baseline+ALL", "OoO", "gcc", "0a3a3ccf3bd7c4f2860b898e1e110cf850c72899c511f08be883b0ff40b447a3"},
	{"baseline+ALL", "OoO", "gems", "88eedecf46c1910a1400bd287fe00cf831eb17c249cdda2cb0afa7cf12d5ea35"},
	{"baseline+ALL", "OoO", "lbm", "586add612f1a1eb75d2caf748744c745b7de97327413ed704a3f90f3a8918127"},
	{"baseline+ALL", "OoO", "leslie3d", "66e28dba109e73cf94308976cf996f403d4b902a910a3a6d02aec457cfa19960"},
	{"baseline+ALL", "OoO", "libquantum", "b8a059b513330b207f8b489dda83dfa93ae3884630d82c052789eab22c06c56e"},
	{"baseline+ALL", "OoO", "mcf", "2cfd92c2e63dbafe4250f73992fc3517f0100400caafb1f266aca11e568c8c78"},
	{"baseline+ALL", "OoO", "milc", "4f4e3985a9ced654c806aea123149b0683d334faf43fe1efafe43296929dde7c"},
	{"baseline+ALL", "OoO", "roms", "52eeaf8b03a44a5e83ef460d1ebd639b455c01270030017f6fa475548c9f4b03"},
	{"baseline+ALL", "OoO", "soplex", "f7ce7a6e214c6a18b5a5d2a9b4b2288a7fe5cbfa876a8e596360ae95f2cb6550"},
	{"baseline+ALL", "PRE", "astar", "cc867e8d445428e0812addab9c46be2420de525f3e51f954938af89d1f41472f"},
	{"baseline+ALL", "PRE", "fotonik", "5a1d6a79651dba1b6df2be0dfd471f500e4e543f53fa2fd854f54923765104ac"},
	{"baseline+ALL", "PRE", "gcc", "dcdae3cc3cbd10a82f490c89ae1e20e5e90db970715f3419fece38eee0a77754"},
	{"baseline+ALL", "PRE", "gems", "9bdfe86c008190919353da3e078ecb9c724cf8036a2de44a86c654adca35c5fe"},
	{"baseline+ALL", "PRE", "lbm", "0446ad30b3968b53bc3ab05b0a894aeee2205cb90c9dad6d49d9c06a167e3aa1"},
	{"baseline+ALL", "PRE", "leslie3d", "fbe87b59e21a0fb9a5f8bfb1bef608e4f7796ac96646bd4a4aef126c254591b3"},
	{"baseline+ALL", "PRE", "libquantum", "8f74dd9b88fadb3fe59e1930fc90867cd1856f127aeebd8850a497303e03c162"},
	{"baseline+ALL", "PRE", "mcf", "194febde68e8a4d92403c5a26b68df44e2e6773ca2ad14ea8660745c34240783"},
	{"baseline+ALL", "PRE", "milc", "97ad624b4ce677434cfb62bd5462d7e5ae075936e6d31a8f194bdf5a3b087b5e"},
	{"baseline+ALL", "PRE", "roms", "ac40b04333ff160087a4c76fa040c81dd9ae2c51651c87d018679c1537c26a75"},
	{"baseline+ALL", "PRE", "soplex", "507c72c72daa54144fb2065884d1402fbb84c59b80988ab3e0e3d24d37f85edd"},
	{"baseline+ALL", "RAR", "astar", "ddbdbd5f2bd9a778996a4bcd7929c3c2c58632f0785e0d9aebd37349c3fc3db7"},
	{"baseline+ALL", "RAR", "fotonik", "864caa1dac1960f4a9315a199400f507304d0dee63b32f9d82b220578db0612e"},
	{"baseline+ALL", "RAR", "gcc", "218ab92c583a7f98c99c7afaacbc97d5b9c2c69905f2abc4d17afbc1190b4a11"},
	{"baseline+ALL", "RAR", "gems", "59b862610515ec06257f7485ce3ad488d7620b019e0d5d52d11d08f330382a7e"},
	{"baseline+ALL", "RAR", "lbm", "a6bb083dd12013dbac51698d000e71ac8fefe2b73fabc4235173e64862780cbd"},
	{"baseline+ALL", "RAR", "leslie3d", "71b6979c0d9794d02ffc5719641294f42dbef2b33b041be4f1d80ed797a1e967"},
	{"baseline+ALL", "RAR", "libquantum", "c1c88595013753cac7a95f63309eca23657c30b5751cdf24fc314666b312a3e6"},
	{"baseline+ALL", "RAR", "mcf", "f54de6d45162a03346afa5743d40e740f58969ca557be729f4e17f85074bf033"},
	{"baseline+ALL", "RAR", "milc", "5d1a3d3eda1504a8a342209da2880f627da413b5360ed494f4804c441f7d67a3"},
	{"baseline+ALL", "RAR", "roms", "529117e9815485b41b35c18f96e30920aa9047f9eb0867069bfc29cf25c0ffb5"},
	{"baseline+ALL", "RAR", "soplex", "da223ec0dbd456760a60bfde2ab59a83df2b1dd8726182cddc8ae23577a224b9"},
	{"baseline+L3", "OoO", "astar", "bd4a699cb4f5e81c877930a6190d0cf3a5675143df888c0592edd43b40b2d582"},
	{"baseline+L3", "OoO", "fotonik", "758b5a1088794eae492dce12a510117c041c60d7183e26634a1ea9690b1c5e5e"},
	{"baseline+L3", "OoO", "gcc", "86fbd47036415be965d2cd5fe188d621b193782ffb8c06d49746784376645d78"},
	{"baseline+L3", "OoO", "gems", "a997deab636944712f63815a41ef0f0fd6bdae9e9bb4918e4631d8599067d846"},
	{"baseline+L3", "OoO", "lbm", "1323fb55656a4c15b0ab5cb929823d985ea5f852d9ba1f85bd61a7ffd81409b8"},
	{"baseline+L3", "OoO", "leslie3d", "95cb3e42e72df30e3fd1add11aa1e1c94d98094e3be94ef9ae7b3b1cbc0a7b2e"},
	{"baseline+L3", "OoO", "libquantum", "5d4fb6d3a8e9857c4e9abb1e4598978a02a4fba0a3518a87798af9776b1f0338"},
	{"baseline+L3", "OoO", "mcf", "c5c00b23c06294e9694207026ba7c6d35719e36988bc19592d8420ceb806b714"},
	{"baseline+L3", "OoO", "milc", "3a76d7a79cd860b694d6df22fec27bfe7aef89215aef69b3111bf690c48ac542"},
	{"baseline+L3", "OoO", "roms", "4aa31778ed66157c10b17d5ad988da8252f83f67f15e0616019250f3058f303d"},
	{"baseline+L3", "OoO", "soplex", "2461e25a264cb7084d66c0b666f30f77de85e5f4383743c7131c284bb378272c"},
	{"baseline+L3", "PRE", "astar", "6c33e4ee78f369848bd4502111d93e4909166b1836a6645939808c99bdd8c17e"},
	{"baseline+L3", "PRE", "fotonik", "074221f9ecab6a94f1539c140bacc918059a406f39bbaf17d4c9455da2e9b894"},
	{"baseline+L3", "PRE", "gcc", "bc826e099bf6b5b8407a7c457cbe7318e78f119ea49228da381cee153174a26b"},
	{"baseline+L3", "PRE", "gems", "59b8fcb9512842f1bf4d1d1bc8a2e7c9eb22609643e2ed7c3c3d259d6ba26769"},
	{"baseline+L3", "PRE", "lbm", "655be5eec809b2c4722a0eaadd41e87abe10f13150ee03d7872124964d0a4235"},
	{"baseline+L3", "PRE", "leslie3d", "3a9d9130d59f0976cd485b8cbe46244034ed3e166eb41f6fce5b448a49db553a"},
	{"baseline+L3", "PRE", "libquantum", "410d4a36bab1770ff13986ff01f2fa48ece2297013325ee245129030ea05a72e"},
	{"baseline+L3", "PRE", "mcf", "d8f134f3b048696ec5fcf19639aec263a27d4a6d0c3a6c0d387fe84cc7ab8591"},
	{"baseline+L3", "PRE", "milc", "7e458dc737fd702f08f4ddc91f627213d3869e338d3f5b4853e59802d7acea9a"},
	{"baseline+L3", "PRE", "roms", "9df06237d040d433786cf09c7d24330b9917fdaad0fb6a87421bafc5947ec99d"},
	{"baseline+L3", "PRE", "soplex", "51a0231c4af7204c7c01017ecf622351ae5ee9b62e08fe011bc9cbcbf55908ce"},
	{"baseline+L3", "RAR", "astar", "6731167323d956f647784d42ed8f7dbf8ef54adf15b11f567c4e0e5aebbb41d3"},
	{"baseline+L3", "RAR", "fotonik", "29ecbaf337ae649a5be3332d42b2d5a36d775abaacb08ec87d6639a69b6af714"},
	{"baseline+L3", "RAR", "gcc", "4794c67b6a7394eabba3e30375432488aec3510c64032babbb5919859bb258c7"},
	{"baseline+L3", "RAR", "gems", "0bad8e50132efaaa4c530f78b9cf895fd8dd558f78a251a50909f5a70576822c"},
	{"baseline+L3", "RAR", "lbm", "bc85d16e8e4089dfd95d38771ef634faff2d3320be7e73af8885a3b08877ef43"},
	{"baseline+L3", "RAR", "leslie3d", "d3ead602b858373b1cabc97438abc8c519a4b7ecb22df7beb7139269c48e5c30"},
	{"baseline+L3", "RAR", "libquantum", "9a2216c3e751417376948ae5821af32421ebe9756370b4387a9f5ca6ba644639"},
	{"baseline+L3", "RAR", "mcf", "7419dde9c52160a9dfb9db87c5e279c43e6bd7b94509c50d2ca6f92780288510"},
	{"baseline+L3", "RAR", "milc", "000721fd976b05ec006305b506f9a2196b7558a4938cdb5433d2b5373e2c0806"},
	{"baseline+L3", "RAR", "roms", "8b30cc29272990a3e2aefd6b3f6ebda2d4d08f7510c42551aec83b3f8768db82"},
	{"baseline+L3", "RAR", "soplex", "73fd0d4d1d4727ee2e39027117c628b5e5bd8cd0d4c120a2f62c68d25965ea6c"},
	{"baseline", "FLUSH", "astar", "c9085fc574f04c3782fb71d568a55aee87db58716a6db32dcc308f0aa951f34d"},
	{"baseline", "FLUSH", "deepsjeng", "4cb5352b2a0c7b381525865b94104a3e2980ebef1125cd446fe4cbae36c43c0c"},
	{"baseline", "FLUSH", "exchange2", "5ef926e2bf6ae103a462cb468e2f10ec1821f6497f852e067a19158532be7e29"},
	{"baseline", "FLUSH", "fotonik", "e248b9e72279a60030cb6d7eeaf4d66bc44200a711c8974726f2e70b05914254"},
	{"baseline", "FLUSH", "gcc", "144dcfa96c5b9f4b343381174b58434a3acc7baa182281174cd71f6e91c5657e"},
	{"baseline", "FLUSH", "gems", "c74cc705ac2b9d1de8700d9a60345ac0fd312d50a3a4576f4b30a3a0c72b776a"},
	{"baseline", "FLUSH", "imagick", "8c14b7b84a9fafcf298ff6f4777719709a0272c967bb31c143f741fad2ed9d02"},
	{"baseline", "FLUSH", "lbm", "7bac76c6d8247860a910654868ff7a4a5eaa663e42ca219ffcd64be1078aa48f"},
	{"baseline", "FLUSH", "leela", "8ff7d1f2640807e701535f677847c0bea982f028c3dbb1b6f3cacbf08254a4f0"},
	{"baseline", "FLUSH", "leslie3d", "34d64658c7406d34dda6189be40ac4199b419c58d394f03ccfac674cd3fdb381"},
	{"baseline", "FLUSH", "libquantum", "c24cd5c3ac8eea73f413540492877660126eb601150f4a72c227877e495f8fd6"},
	{"baseline", "FLUSH", "mcf", "85bb21ba05b460efd58cf773dfa64216a68890e4a731084a4a5cc035e84cf29a"},
	{"baseline", "FLUSH", "milc", "ecd1731959407c3429bf8bcf8b969e683e325801a0216c43268ff83e4d66b16c"},
	{"baseline", "FLUSH", "nab", "edf3ad3b8e0ca594e7634042a197e44eac56a67f2a3faf4acbeab937a469295f"},
	{"baseline", "FLUSH", "perlbench", "ada258d3eb311f1f52f168fe99e14161d5d358b1e6fd9bb179eb129f363bbb0e"},
	{"baseline", "FLUSH", "roms", "b9459cc68538ab2285798f036634b56c8f08728b72e4ea1e26305a486ebb5af2"},
	{"baseline", "FLUSH", "soplex", "0c443f4dee891069512fbafca957416ca377a812539a9a61a6640bebcef27e32"},
	{"baseline", "FLUSH", "x264", "d231fcffd1c7fb76b40a72278fc3e65769aa264ba80c792fd29b8b7da030fbab"},
	{"baseline", "FLUSH", "xz", "541605cf4d7cd7fbedb31c08f10dcc5f03076d7c6a8429a96bbe2a6edcbb47c8"},
	{"baseline", "OoO", "astar", "93258d62446f459a6e6c7b5478ea13efce61ce09cd661fcc37d7269157a34a6a"},
	{"baseline", "OoO", "deepsjeng", "dc5be3e4b6696acbec5671bcba15f1042308dbc0893aa56232a6849e45ab96b7"},
	{"baseline", "OoO", "exchange2", "c9e02a2d88f6a70ea83f96b2d5f0905add2832f15f038f050094f1cb57f69692"},
	{"baseline", "OoO", "fotonik", "08d81fcac714e5443a0b7db1bd3066fed89fb712cc5772bea0ec1c5dccc96816"},
	{"baseline", "OoO", "gcc", "72e8c6c691383ea572e4578710a5cbf6bfe5fa66edbfd3d5f1ff2c8ab4353d9f"},
	{"baseline", "OoO", "gems", "62b16790b048a5da353cf590e7f7548733ba5c6703ec9270bbf26886e0075a23"},
	{"baseline", "OoO", "imagick", "386907d0edcca5cafd086de8d002b9ed5541c3b2f1818c8a42098e05a4805e48"},
	{"baseline", "OoO", "lbm", "4b292be8748cbad486dc115ad12cb7fab50f2ff49cd247652e92a85dba3fd762"},
	{"baseline", "OoO", "leela", "abc37d36489de9405763e2de9b31c78d89497bd9dd82050c3a001a7a02aa1ce6"},
	{"baseline", "OoO", "leslie3d", "76a05fcb8ea20c771c86b925049c2417798736e722337a8f631e1e3d1a1c1038"},
	{"baseline", "OoO", "libquantum", "32ca457b6a2fd392e6b9f20bd6be15781e71ca435ef9173dd85a4df653361355"},
	{"baseline", "OoO", "mcf", "b34f840e4b757d338e6039e0fbd01bb02ee131d4e1b19359f678949c072b4f49"},
	{"baseline", "OoO", "milc", "f04f6cd0cfe0842e1f86d04eb50f08624b7c37c224f9d205dada7f34f1bf97ac"},
	{"baseline", "OoO", "nab", "da846edea3b741ac9e1ed6c896b0ad446c9fed1c387be0bf0f8cf522359bcec8"},
	{"baseline", "OoO", "perlbench", "1e931d09767586521ada213dea546aefab3858945c1e49b79a6283fd198b0714"},
	{"baseline", "OoO", "roms", "530ffa947fd9b9fdba9cc1b04428dd598f1a125ebafff53f06a4fdeb66dcbcfe"},
	{"baseline", "OoO", "soplex", "3b1a245ae6d47776a8848a6de369d7ba5c9907ebd31ded220d764ebe2f27b068"},
	{"baseline", "OoO", "x264", "4194e66a39e674fcfeca056f0b9d3c35dc63b0549aad811f55c65b69689db880"},
	{"baseline", "OoO", "xz", "709af7ff2f867d4b18a5ccd4088e05f620512dd20d6e17b1a09f1e768e4fb7c8"},
	{"baseline", "PRE-EARLY", "astar", "54a88eacec87c0a1618e8b42dc21b3e1677440b93514686eae8626c9b64423b9"},
	{"baseline", "PRE-EARLY", "fotonik", "c76f0a5ed36c6d5af916152e7ee2db853b13fa3e13fda61aa293f8e8985ce770"},
	{"baseline", "PRE-EARLY", "gcc", "10680be67b90710495a60ef3ffff7c759a37d47aec97dd5d8167ac382b3dd17f"},
	{"baseline", "PRE-EARLY", "gems", "b30121474017044048fb0434b870b24065d33db8cff52a051968d43f8ce53125"},
	{"baseline", "PRE-EARLY", "lbm", "e93c0eabe2d228e6eabd339fa31a92990fae467fb0118a786ffa649f4e978a87"},
	{"baseline", "PRE-EARLY", "leslie3d", "9549b4e0743ff46744f0e88a3dace2dc8e427154a02d32ef84127220d0cfee49"},
	{"baseline", "PRE-EARLY", "libquantum", "c565145e5977492e5f9f76ea6aac2239113c1836a1e8ec3025864204b7e101ff"},
	{"baseline", "PRE-EARLY", "mcf", "85e2932449041837ec377780b7922476e7cd27932179d74a9d2aebb8839dd5b1"},
	{"baseline", "PRE-EARLY", "milc", "6c21ee1ba0158a55d5f112409eefa70f701e50cc239e7c76905555900a80d01a"},
	{"baseline", "PRE-EARLY", "roms", "bf2891992820594b0a64c4dacff8f696e8b1e6f40617bbaa42155a4f46ffc303"},
	{"baseline", "PRE-EARLY", "soplex", "0eac563b5b87c43ead00f754bf9d50dbf82e9811f78f0fdc97e8f501d6f3b9ee"},
	{"baseline", "PRE", "astar", "e3516b53cfb9cc8146584b74a921ad76cbc39508442ef5206b4ee0aeaf54480b"},
	{"baseline", "PRE", "deepsjeng", "328fbc647f36de3cfa5cc862f4b45720325dec31cf91c5931e681d29424b52b6"},
	{"baseline", "PRE", "exchange2", "909e2b50ddaf6e86dcc821993731832dbd8c146ee8668ffabc5f4822f9d8ae30"},
	{"baseline", "PRE", "fotonik", "7e0d89af053d48738168d1cd8f8ed83709c0086524c6f49842afec3f225ae5ac"},
	{"baseline", "PRE", "gcc", "430488a1950a347499eac0cb6d85641ad7605b7b3be99057ea88661eb5266d4d"},
	{"baseline", "PRE", "gems", "b79b188375062f095350ae88d5d5f5ad6be29cd502894559353b87a23c96ee44"},
	{"baseline", "PRE", "imagick", "817f44837d1f50253b71976cc079d82069165ccd4fe34438845f5a0e324a31dd"},
	{"baseline", "PRE", "lbm", "3797297d3aeee321d232fc67360b111f075055e6f52ff62e186af876960e501c"},
	{"baseline", "PRE", "leela", "cdd8ff2a9d181b4cbd8898518206ae2f3a7d10f99b3ea084b44f42581a14d61c"},
	{"baseline", "PRE", "leslie3d", "42ee0bc5cbb9a7d8d1451e110a0fb0e8d0b22bc38e3313c2ac3189b2e2d91c5b"},
	{"baseline", "PRE", "libquantum", "3a98cbb2343b8c8bb596121c4d7dc6ec67eaac320d327e225034e8dd048e75e5"},
	{"baseline", "PRE", "mcf", "dc8a8b02d667ef44e5276514d002d0d48b500f14ff9542d9fd0973aa71218d32"},
	{"baseline", "PRE", "milc", "f43df33282ced92177c2c40e8008507a90f4f1bc94c688337eb946546b960984"},
	{"baseline", "PRE", "nab", "d9f4a3f05a06467c2597ff4ff592a20acb7d67522a0a417b30cea7f79f05f510"},
	{"baseline", "PRE", "perlbench", "1a395e97a6db99f8897c85d3816bc57f3296068d2800c6b74199437ad500024a"},
	{"baseline", "PRE", "roms", "379a3a37304182fc9c53d3b28298113859e1b37199ef04ed8d8adef31743cb7c"},
	{"baseline", "PRE", "soplex", "e4e623d662fe974ccb7a6be7e5172a5079d1babd718841e0bf05d7a17ab00cd4"},
	{"baseline", "PRE", "x264", "1a03f8338331c0c2442df9ab89fdac32497f5fb1de4754352a62ec42cde1498c"},
	{"baseline", "PRE", "xz", "587e96a25aed21a11ca959ddb234cbb81341ece164721645ef0e1a3dfadcdb27"},
	{"baseline", "RAR-LATE", "astar", "a61883cc103ec19a9ce7a7a3c0ac1cd09c8ffca955a40e51a4f815cdd2a71163"},
	{"baseline", "RAR-LATE", "deepsjeng", "a4c9ef63161fd880ed4020a886a25b00eb12bbb31df960182619421f0a8a5039"},
	{"baseline", "RAR-LATE", "exchange2", "a2b9128ea17796f51d04961d8b59f96f714b656fa379f96025623fe024449f49"},
	{"baseline", "RAR-LATE", "fotonik", "b2435ffd7df0cc944451f2d26b811f446f844ab4e7f3ab1ba604a85af012be68"},
	{"baseline", "RAR-LATE", "gcc", "37d8cf64d2c13994661287bceb8d53e37e74e89272a54f595b381836e242b9f9"},
	{"baseline", "RAR-LATE", "gems", "dddc7c5369bd87cb97f6891427293655ea005a2329379a946f257dd0fcd11fda"},
	{"baseline", "RAR-LATE", "imagick", "ac99107a73bfbc549ec5e732893e17efd14196df36aee6fcc5fe17a7f007e056"},
	{"baseline", "RAR-LATE", "lbm", "93e3afbe1fb5db387674dbdd3388fef741bfa3730e8a7bff06c5ed4bd7a525d7"},
	{"baseline", "RAR-LATE", "leela", "11c4ca4e36bf75dca16285c2efbb35a67bda23a36336660259e00d21042ff13d"},
	{"baseline", "RAR-LATE", "leslie3d", "0fa49a1402867f5626fe5a4c36f887d3af41cd954d77b95f0e6a6cf5a05bc5df"},
	{"baseline", "RAR-LATE", "libquantum", "c2959c5c1ff4c124cc58f59b61ff7b6874a7fe936a9378123075875029d0896f"},
	{"baseline", "RAR-LATE", "mcf", "7b23a6cf73b1c5112b4fec301b189a5b1dbfc9771b14d1efd5eab451ab946f33"},
	{"baseline", "RAR-LATE", "milc", "d41a159ee70d8175fa6958c4d9f65ec116a3ac114b36e29d51a539216bfd47dd"},
	{"baseline", "RAR-LATE", "nab", "3436cc0015dbb6c8182783704a1a8086574d7b789c6319678a0e064a130d5075"},
	{"baseline", "RAR-LATE", "perlbench", "5645641a059f709fa529a2aea6d01de213aceff385be96a364331a319db8e57f"},
	{"baseline", "RAR-LATE", "roms", "cfc9e681df23f0214f36994c4996abca9290e30b61f69dd4eebdbb30a891c74e"},
	{"baseline", "RAR-LATE", "soplex", "b93eddf0f50d011c052d8dc980807e4f98d10d6703ea9961df89f1da3cf25dee"},
	{"baseline", "RAR-LATE", "x264", "c234779a73f99f9f61b99276b77b2423d4be0b1d857ef136a00562e50d5d69d4"},
	{"baseline", "RAR-LATE", "xz", "467e699ff8ee6d3b78a65781b3dd470dc5805052662efa4ec1f1154e29fc113f"},
	{"baseline", "RAR", "astar", "f47e287aa7c9a86ac831acda36816597bd6c2b13db36bc332b2de1402b213984"},
	{"baseline", "RAR", "deepsjeng", "8298f851acdf4e6fe7e639a12f42ab25385ea2a4ef51c4c90fcd573379fe9a31"},
	{"baseline", "RAR", "exchange2", "06ed3c13a1737b3f1e788333de344eaad46f49590fe7da7bc108ea73cf1c1226"},
	{"baseline", "RAR", "fotonik", "5c2cc1cc0a3f90d01e08e0758ebdcb4b98eca0c86665e565ed4a5b1caf5b6160"},
	{"baseline", "RAR", "gcc", "5bcff784b03196ae83aab26c2b65db699886c21d7f5b7380629887818d01c3a8"},
	{"baseline", "RAR", "gems", "2bb6365166e5b5648d9ce12ce7439bf4b5f54f2c0bb71c66e9852e9754cd679c"},
	{"baseline", "RAR", "imagick", "64cad885fad7489fb75deedbe783674f51224280a414b43df05f4dba87102a05"},
	{"baseline", "RAR", "lbm", "b3e2f0bdbc8f5dc08536c8a3e467fcd0d810b2a7de3b585ef70d118e6f5b242a"},
	{"baseline", "RAR", "leela", "7f150098e82e13ecd8d29db9ce40dc79bc3eb9620640b4f8b80cdcfb6a8511fa"},
	{"baseline", "RAR", "leslie3d", "301963360af7104bf055e3c43f3c88655388961e7089b50beb605e46e2d5dde0"},
	{"baseline", "RAR", "libquantum", "b13781df5a36d922b8920e04190792252c766270bdacd63e0f34b3f64b8515e8"},
	{"baseline", "RAR", "mcf", "d9ff718404168bc3c0f3b0f029f3537ee2a5c5fe1b9f0f55b59adf7f179dc7d2"},
	{"baseline", "RAR", "milc", "da193b40b1ae097861efd798ccb0043ad3304e0b782c6dbe425e3792435367a3"},
	{"baseline", "RAR", "nab", "55a883c6a6be7227420ee7223f5b479d1b5026f2c4a7b470b41a08352346812a"},
	{"baseline", "RAR", "perlbench", "330e1dc5c6f5b3f4478fdc50eb4c52b1a338f0e1ae8dd357678bcf9197d9aa2b"},
	{"baseline", "RAR", "roms", "5c134dfa5d9f5d087dc09081a9ec9b0ba3a2f94acd0d01f05c2f0809600d9597"},
	{"baseline", "RAR", "soplex", "5fe3fa48e35cc787948416004958083ebcfeaccc60a071dc1333f0727040eeca"},
	{"baseline", "RAR", "x264", "e3137fdf00aecc27e193c424792148237c421fca9c6c27d7bac64ac1e453c89f"},
	{"baseline", "RAR", "xz", "2cb18770ecaf37ef83d59622ba904cdc17928e5df7a8dfd617830b46c9889ade"},
	{"baseline", "TR-EARLY", "astar", "681ceb171aec455b0ec4231c64f24b7305fb1d99ab37f1465a6d5441a44913cc"},
	{"baseline", "TR-EARLY", "fotonik", "6bff4feb84ccb933e8d7145dc583668f82ffe25812d428ed9c6fa8f9f1d6c2bf"},
	{"baseline", "TR-EARLY", "gcc", "fa61010400594f05f511d9c4d818a448625d93ff6382d553cd0f74b70a8dc67b"},
	{"baseline", "TR-EARLY", "gems", "b30aa27281f7dece2c2b885f45785c603ec5b8b5746acc0772dfcf2014c496e7"},
	{"baseline", "TR-EARLY", "lbm", "95c2386960934fc7d00a3ca9aa68d522045bd39e464fb24a6f3b2f93c4dc4055"},
	{"baseline", "TR-EARLY", "leslie3d", "32929dcc4f4ce72ebd89846d981b48c1bbbd6824320b501e7a35f912b8387d59"},
	{"baseline", "TR-EARLY", "libquantum", "399d7289aaddf666934113045aa5141e470a67498b0e75e1a8564c4c0442d394"},
	{"baseline", "TR-EARLY", "mcf", "fc2e051aa219a2500b3e163c98b3240268d48cc31417cbb48c2281930258742c"},
	{"baseline", "TR-EARLY", "milc", "8ccc4f8d7ad427b83811bcd15001e0c2851bc450e0fddbba672e315763d5970d"},
	{"baseline", "TR-EARLY", "roms", "1fffaa3830087974e59c6a5700fbe70a34eabf1ae7429227e5f25cef96b716a1"},
	{"baseline", "TR-EARLY", "soplex", "c635e4149366247cdc6275b071ddedd9196bdb61d82b7bc902f220ea285043f6"},
	{"baseline", "TR", "astar", "7d5b8e0fa7f4ddf6042d3a8beae38c9bc453ec9ffbb8a9f6b68eda850fc86dc5"},
	{"baseline", "TR", "fotonik", "77e056b894ebee411b8427c1b2d8878fef7723b99a5c55d1cc8c96ef72445030"},
	{"baseline", "TR", "gcc", "00b007affca9fe81b758144ab3ef7fa0a8f4e8b3bacd02b74b9f58ced5384d1a"},
	{"baseline", "TR", "gems", "ac3527ad7d3806af95a96fb4359bff9a6e86e83a342bd763e398ba1785390af4"},
	{"baseline", "TR", "lbm", "25136e399908d118c19c884782417283b98d348f426be82e0d06f4a2c1380319"},
	{"baseline", "TR", "leslie3d", "c189b222f8842975b3680fdbf99d80cf9ae15bae7a8256c493da1c5506035ba7"},
	{"baseline", "TR", "libquantum", "3ff135a6e918afb0006433522f0011ffaf8c2a70cc6c7280e1a5b33b8478d0f7"},
	{"baseline", "TR", "mcf", "e3cb5bc6b1f37604471559794e726f9c9a39721aca2db9b98934b4209f2161bb"},
	{"baseline", "TR", "milc", "4400217218cc13db8662808e243e62d397e99ca91d3636af5f8d6e898dc95779"},
	{"baseline", "TR", "roms", "3c7fbcb0527f83309982c1a607a75b5134ec2eec07f7fae1d7a67726d068a131"},
	{"baseline", "TR", "soplex", "354fbc71dff1b4249ddcd5f235ece09e6ae7501e8b9ee3dc8e70c4591ccfda41"},
	{"core-1", "OoO", "astar", "c9122f3c26c8ccb42d06042d7816691ff7907248a14d2c9c1a907a2e8b621264"},
	{"core-1", "OoO", "fotonik", "d42e523b47d1942f9b655795bb885f443550549b800da35c51255d0954b9e3f6"},
	{"core-1", "OoO", "gcc", "4b25fd5c2c4a19bb2d6d1e635ffefdffeaee32c404d716fca34d24c8a8bfdac1"},
	{"core-1", "OoO", "gems", "deeb8337634624e29baae50c7c94540f66be7c67deb79714aee34d070dcc6e37"},
	{"core-1", "OoO", "lbm", "d64d61bfc34017f514abc56f4067a2c8fe998710bcb17267d29833fabdd3f1f0"},
	{"core-1", "OoO", "leslie3d", "15826d694aee84af54325bb65403a5990e49df5d8442656617aeda5fe8e9ea98"},
	{"core-1", "OoO", "libquantum", "628e4a9dee86142947305a55d0b9d82f518610bbb600c1b2370a9d413513f764"},
	{"core-1", "OoO", "mcf", "985aa1cf6b945d8f1ff31d3cfc6791e934d30e521adaa85a5ffea588503ab6d3"},
	{"core-1", "OoO", "milc", "ad8d20a5db69ed0cebba065a87313788aa7e3a53869976b8f1829f7466cec9b0"},
	{"core-1", "OoO", "roms", "527ed02d2e4eb402ef001ce05100a3379135fe775e1426965338940d0dfcba38"},
	{"core-1", "OoO", "soplex", "7236db7541c01be5e097a641f42fde64220b5f8bad39d88597cc9d0568ed305b"},
	{"core-1", "RAR", "astar", "24a4fad7c11cf6dd07dddba012441ecc8ef79b671f06b688cde9aee1c818437f"},
	{"core-1", "RAR", "fotonik", "0807273510c5ab3ca47db0b7848714d74af14e759ae678e3fd41ba52601b3264"},
	{"core-1", "RAR", "gcc", "22f1c201fca8854db35b284a93b42d00405c538c60d698b8f1c7ebf847f400a4"},
	{"core-1", "RAR", "gems", "663198ff101f1b410431c9104cf60eacfa94f1aef11be971fff8c40fb4e47ef0"},
	{"core-1", "RAR", "lbm", "83993e4359a913488f9c881355fa395725782d61b9e713189645e5fb8fa8c726"},
	{"core-1", "RAR", "leslie3d", "950410e283d77ff06910e8157fe287616b53b8c1fcdb69bd21181845d44392f0"},
	{"core-1", "RAR", "libquantum", "e9204a12d1e3be18b55af9b06067b6ae7a5c7e66fde53a089adeb68f36e40b9b"},
	{"core-1", "RAR", "mcf", "fd4eaf5d4aaa7bc20eab960e79eba80289c99d6c2ea7a5d6568774072950c0a8"},
	{"core-1", "RAR", "milc", "00143a30c66b67c19a7af7d72baad178856c439d79b9e4746c2b64149f57d15f"},
	{"core-1", "RAR", "roms", "54991f23c2d44ee41ab70e1830a9d6493654e34624916cdd1f7f8734449e6418"},
	{"core-1", "RAR", "soplex", "6109834b1ffb94c3c1a1cefc42fee8f27e6636459d6505863e28dda9a751d145"},
	{"core-2", "OoO", "astar", "10990ddcd722f3e5d794f81aab290aee91fc95f4de32726cfc44b3eaddcfb43b"},
	{"core-2", "OoO", "fotonik", "b9deca5a80fee38b29c5e301f45a21d203c21bdc7484657ec143366ec0fc5fc8"},
	{"core-2", "OoO", "gcc", "a6c581c0ee789cc79846ce81c4dd40d1395b31632615ef8ac2118f505aa036ac"},
	{"core-2", "OoO", "gems", "e1e143b97c676f00f5f5300fdeb7cbd936ea9419ce0606fe291257f9fdcf8017"},
	{"core-2", "OoO", "lbm", "321a40f4745aaa2698654c25f84a1a655b7a4d34c3b9e2c4e0944b8682cf0386"},
	{"core-2", "OoO", "leslie3d", "52eb2890c5d368a6a6a66d92fa3de4ac1dc4d9bd5eb33bab8bb94c4f05b6847a"},
	{"core-2", "OoO", "libquantum", "e7dea9c9591a0e5b110ef25dd1f12a8fc88ed2f393f25a83eb2ac42e88db382f"},
	{"core-2", "OoO", "mcf", "af27ccd3d12e71db7a69e847a4cbc9170465ff1effb190fcdb79528b12c3d342"},
	{"core-2", "OoO", "milc", "8a79576e2015114c277aa8572cbe6fd48df677f97d0b3e19736881b23f0a3b63"},
	{"core-2", "OoO", "roms", "1473faee9aa019a5d68e8be81b81b3c2a12f7a4dad279f6757153c8af85df294"},
	{"core-2", "OoO", "soplex", "3aced7ab4e71d67431f4835267bb864007d72bcfc12723c7175edaa1031f18e4"},
	{"core-2", "RAR", "astar", "abbf1f7e934499dd09c3ecaf5aa7216b28055b04ab292e8dc25c15c83a24a029"},
	{"core-2", "RAR", "fotonik", "ae1e8c240a7995ce610196fb79aba9ea383a4127eaef904990a4f3da749afa79"},
	{"core-2", "RAR", "gcc", "cb96b8baa84f337a47f888ecb63ba3d9d3a08040411ae4755629c24ade99e1ce"},
	{"core-2", "RAR", "gems", "7547f270a3be58515dc0cdbcd0279a8cb4d827865f1f637a4bcbc3444bec5b24"},
	{"core-2", "RAR", "lbm", "2ed7efa0f6a75e5564e825168531552e4f9cf1919915783999800d92a1b826e8"},
	{"core-2", "RAR", "leslie3d", "6be7f34ddad8652fc7b878b57c3d8e9d96422e7bc9df3ec439eda1022c136e26"},
	{"core-2", "RAR", "libquantum", "57a32c0ece9de7973db54ca0c4700925546e65d8aa354893395301e3a6d979bc"},
	{"core-2", "RAR", "mcf", "7e4060f7eeb970d529887a3eeb5f145404278c5f00539ed745d4704d490e6e5b"},
	{"core-2", "RAR", "milc", "0de5eaa92a1b0cb20f052292a90cbff9880b35605804ee05966097dd1626493c"},
	{"core-2", "RAR", "roms", "3722b4b40918aa9b61d4a77d62d5f02cee1bafc298c6d9e72c5769e0ca9eb88c"},
	{"core-2", "RAR", "soplex", "f6fdf264a73e55532dd727902467a2d60fcf9393978cb1b74d5f6620436b0e9c"},
	{"core-3", "OoO", "astar", "0bfdc039b37501042fbf55c438227035f8e3173792aba506af35eae6939a8e15"},
	{"core-3", "OoO", "fotonik", "67e9e1c71604c58cc318cc18c181d8c4687f2509878a54d2afdf342eee502b68"},
	{"core-3", "OoO", "gcc", "8574fec1625456b9fb57172d07b9a05af98fe4b6f12e47c8b96c38be54cb0ecd"},
	{"core-3", "OoO", "gems", "220c6a213e0056ec3eacce5a4f0aee75ed8f9b1d70f91a43e90645101553ab54"},
	{"core-3", "OoO", "lbm", "e469e7aeb0bd84392950fac4e23f93573c533d8a30c170cb76e7dc4693d6c694"},
	{"core-3", "OoO", "leslie3d", "f46aed31ae4f9c48c7a65ec758d25fd8ef7bfb297952384e31aa7cbf04163b03"},
	{"core-3", "OoO", "libquantum", "ac067da295049c2ab61279734555d298eda915ae90c1ef48b5472c194e2e33be"},
	{"core-3", "OoO", "mcf", "b30276e7c72951de82012d4564843c48958a4d6247f368d4837cf2991c59acbd"},
	{"core-3", "OoO", "milc", "965f98c7ec00e8e360aa59b1e1860b859943a1e030b52c430f07c30b1c9df5f1"},
	{"core-3", "OoO", "roms", "446deb00f9318851c21a2c29ecac4610bc3612caf26fdb9bf5a01840bfa6a385"},
	{"core-3", "OoO", "soplex", "338371a0ceb0f57760ab2084f52bac462caf101efcc84936fa5b64a33af759be"},
	{"core-3", "RAR", "astar", "c2e174d0775e881ecafbf482adabe468168f755c57e3cc708bc0cb5d7cde07e8"},
	{"core-3", "RAR", "fotonik", "134d591ca4149fec5a0d3a919b04c23ef6b79f33be1a2ab24c9d1e15363e9419"},
	{"core-3", "RAR", "gcc", "dcf55dcc11a158f2d5ae1fce1196ca7a96ab44f1fbccf72078a3db323021ace4"},
	{"core-3", "RAR", "gems", "e8a43ac04e4bb51beafd61f6f29517a12edda42403498628d44ddf27d0925e34"},
	{"core-3", "RAR", "lbm", "9e550058fdf67c5c829ea7da96d7bf09ea69049f41ece135f783c804dc6f0f4d"},
	{"core-3", "RAR", "leslie3d", "67ace352b3dff465ddbf4f2ac1556bd1bc0741cbe4ebe352e5309c3e69e645e0"},
	{"core-3", "RAR", "libquantum", "b7559f34f5260bbf313868a095e403ae94e7b330cd2b1f32187bf32f7e29b84d"},
	{"core-3", "RAR", "mcf", "f9b6dd79ebd0e34e7464ff71aaa8afdba8f6f105bcc77bae3cae8c4baf93d350"},
	{"core-3", "RAR", "milc", "da100a8cd2d39675091fb0e40a4ccd5e3b78c95ed00a7d3385bb5294901ca2cf"},
	{"core-3", "RAR", "roms", "6521853eb5667961d7be0f1e057f997555d718312bf9446020dbc1b3f2236840"},
	{"core-3", "RAR", "soplex", "8b782d994345e22f5fa360dd890855018d8ca39aaa14c9e4bbe7ab7d6c848617"},
	{"core-4", "OoO", "astar", "5d67aca8faa232ceb6078d1f5e25b8ecb6800f39a10ff5abfaeec7cbef038ae8"},
	{"core-4", "OoO", "fotonik", "0be2950ee59b9a7582ed7deb323bf5c087d9b13b71a0c395f76dcf7d9ab040f7"},
	{"core-4", "OoO", "gcc", "33728b11e224b23d089676875e1ff1e6dd3b968549e94fb9fa66f5f24872b03a"},
	{"core-4", "OoO", "gems", "968b1cb4d4a23ff3a10bf662f4361b6d98b4e9ff2b3ef93b47efa5982a99a203"},
	{"core-4", "OoO", "lbm", "17be36dc6bf237886ede3d4377866a0c0e0c75dfbdd87e5c96576bb8c99fd549"},
	{"core-4", "OoO", "leslie3d", "0ab141de855944d00969d5ce50065434c043600c34ffdd31cf279fc9f1834753"},
	{"core-4", "OoO", "libquantum", "50fad0cd75bd630b50132c8662859fc1253b0e719b45212b16e4ef961fbf3833"},
	{"core-4", "OoO", "mcf", "31472e064c3d4f8e4f02eec927b2c871f06644b70bd9e351b026de8a0665f3a6"},
	{"core-4", "OoO", "milc", "c1a307be37cade28641a89043d4d390c00624b62f1e4273a0cacac61012d0ded"},
	{"core-4", "OoO", "roms", "496b62d6a301748d5e0cdfc253391847fd0512cc2d897692d282a22273d391bf"},
	{"core-4", "OoO", "soplex", "efc7b0d0ef27298792fb8e8931e5d6b6b7778df4943a4761e4372c0225b917a5"},
	{"core-4", "RAR", "astar", "9a2b4cab82665fbd344a3733e7dca175f69eb114ad775470ffec451b62897446"},
	{"core-4", "RAR", "fotonik", "18ecc8b3ad211ef0890ed314477c2ea590d1c33037adf8a0f6aa8e94a7dadeba"},
	{"core-4", "RAR", "gcc", "54c01c597548fbd4100888b9257025706b2715a2f8860e12ecebe86b5f2a45b7"},
	{"core-4", "RAR", "gems", "d2f128520cb23c1ab76c0f6f60c1925272e8240bd9d476836bd232566729d86b"},
	{"core-4", "RAR", "lbm", "5e5bc8459b996e0d5eda0688b33583c98c4ff09717443f6efae8849c23013495"},
	{"core-4", "RAR", "leslie3d", "4df5ccee6c7cf876b411c697288a353f760a44b6ffdf984b6b85207c0e1ff46c"},
	{"core-4", "RAR", "libquantum", "59a925e46036e6fa9278711ab537abc750fe07886277515815f1517dd4efc3d6"},
	{"core-4", "RAR", "mcf", "f7ab9a4e44a360ebeb33657d671b98c441b80173732039e22e1b40c454803d4a"},
	{"core-4", "RAR", "milc", "670c10b76b53c5d3ad33fc7239f309acef89ab48f329e3579c5fb5a0c2666b36"},
	{"core-4", "RAR", "roms", "258d2d4a15d5975cddaedeec20cdced465974272e37dead56bf2de01eadee906"},
	{"core-4", "RAR", "soplex", "1a8aa648c1188e5108c5a90a00689d913686fd34063384ccf03e8471795e03ac"},
}
