package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/core"
	"sparsefusion/internal/dag"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/partition"
	"sparsefusion/internal/suite"
)

// headDAG is the DAG ICO hands to LBC: the second loop's, transposed, when a
// two-loop chain takes the reversed path (its second DAG has edges), else
// the first loop's.
func headDAG(loops *core.Loops) *dag.Graph {
	if len(loops.G) == 2 && loops.G[1].NumEdges() > 0 {
		return loops.G[1].Transpose()
	}
	return loops.G[0]
}

// partitioningHash is the SHA-256 of a partitioning's nesting and members.
func partitioningHash(p *partition.Partitioning) string {
	h := sha256.New()
	put := func(v int) {
		if err := binary.Write(h, binary.LittleEndian, int32(v)); err != nil {
			panic(err)
		}
	}
	put(len(p.S))
	for _, sp := range p.S {
		put(len(sp))
		for _, w := range sp {
			put(len(w))
			for _, v := range w {
				put(v)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestICOChurnGolden pins, by SHA-256, what the inspector produces at the
// sizes the inspect-churn workload inspects: the schedules of all seven
// combinations on ND lap3d:20 and ND pow:8000:6 at Threads 2 and 4, the LBC
// partitionings of those 14 head DAGs, and the schedules of 16 random 3-6
// loop chains of about 2000 iterations a loop, half packed separated (reuse
// < 1) and half interleaved. A change to the inspector's output re-pins
// them on purpose.
func TestICOChurnGolden(t *testing.T) {
	got := map[string]string{}
	for _, spec := range []string{"lap3d:20", "pow:8000:6"} {
		a, err := suite.Parse(spec, true)
		if err != nil {
			t.Fatal(err)
		}
		for id := range combos.Names {
			in, err := combos.Build(id, a)
			if err != nil {
				t.Fatal(err)
			}
			for _, th := range []int{2, 4} {
				sched, err := core.ICO(in.Loops, core.Params{Threads: th, ReuseRatio: in.Reuse, LBC: lbc.DefaultParams()})
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s/%s/threads=%d", spec, in.Name, th)] = hashBytes(sched.Bytes())
				p, err := lbc.Schedule(headDAG(in.Loops), th, lbc.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s/%s/lbc/threads=%d", spec, in.Name, th)] = partitioningHash(p)
			}
		}
	}
	rng := rand.New(rand.NewSource(2000))
	for trial := 0; trial < 16; trial++ {
		n := 1800 + rng.Intn(400)
		loops := core.RandomChain(rng, n, 3+rng.Intn(4))
		p := core.Params{
			Threads:    2 + rng.Intn(7),
			ReuseRatio: rng.Float64(),
			LBC:        lbc.Params{InitialCut: 1 + rng.Intn(5), Agg: 1 + rng.Intn(400)},
		}
		if trial%2 == 1 {
			p.ReuseRatio++
		}
		sched, err := core.ICO(loops, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := loops.Validate(sched); err != nil {
			t.Fatalf("random chain %d: %v", trial, err)
		}
		got[fmt.Sprintf("random/%02d/loops=%d/threads=%d/reuse=%.2f", trial, len(loops.G), p.Threads, p.ReuseRatio)] = hashBytes(sched.Bytes())
	}

	var bad []string
	for key, sum := range got {
		if want, ok := goldenChurn[key]; !ok || sum != want {
			bad = append(bad, fmt.Sprintf("\t%q: %q,", key, sum))
		}
	}
	for key := range goldenChurn {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden entry no longer built", key)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		t.Errorf("%d entries differ from the golden table:\n%s", len(bad), strings.Join(bad, "\n"))
	}
}

// goldenChurn are the hashes TestICOChurnGolden pins.
var goldenChurn = map[string]string{
	"lap3d:20/DAD-IC0/lbc/threads=2":         "f2c7fe8a5da6083c7d1c41e3d8e5369bb2af050c3680095a677e75cc42f88e6f",
	"lap3d:20/DAD-IC0/lbc/threads=4":         "c3fa4ba15948b31549821d5b5d5c59a9c3b1bcc86ab2686f7387b0eea46c962e",
	"lap3d:20/DAD-IC0/threads=2":             "762ae8eb93e9563e6f48fa4414692e33e06bbbf7847d68f07aade3a7be08a26d",
	"lap3d:20/DAD-IC0/threads=4":             "b701680cee9a59ad996625e54e34eade762c5640991588e250b4ecd6da1341d0",
	"lap3d:20/DAD-ILU0/lbc/threads=2":        "f2c7fe8a5da6083c7d1c41e3d8e5369bb2af050c3680095a677e75cc42f88e6f",
	"lap3d:20/DAD-ILU0/lbc/threads=4":        "dee1fcddc6ba5c93c0e935a023f1280abbbd13d2d0664a2a58adf7b5c9a53359",
	"lap3d:20/DAD-ILU0/threads=2":            "a71d767b31a66d81b9581b1324b9d4c24270dad2b88fd4384d2620ac97df1240",
	"lap3d:20/DAD-ILU0/threads=4":            "1afa30f1b5e40092b8e0f5fd8cab5daee98966cc9d90e5e5aa09deffcce51ef2",
	"lap3d:20/IC0-TRSV/lbc/threads=2":        "f2c7fe8a5da6083c7d1c41e3d8e5369bb2af050c3680095a677e75cc42f88e6f",
	"lap3d:20/IC0-TRSV/lbc/threads=4":        "c755a3de63410156ba8dad674df6040449243b578962bd8d1b3c879deab99441",
	"lap3d:20/IC0-TRSV/threads=2":            "b78d072ab497a06d0079e20fbd1912c56fba0774f6cd4ecbdb8f5239f3dc41dc",
	"lap3d:20/IC0-TRSV/threads=4":            "0dd2df8772dbf5f4b6f0206f4b416b57185f10c0e0fda9a3d5e41820a83b685b",
	"lap3d:20/ILU0-TRSV/lbc/threads=2":       "f2c7fe8a5da6083c7d1c41e3d8e5369bb2af050c3680095a677e75cc42f88e6f",
	"lap3d:20/ILU0-TRSV/lbc/threads=4":       "3fb34e4850c5a9eb62ad98641f79c8b415c837000a8dc1709391ea2b2f71e9cf",
	"lap3d:20/ILU0-TRSV/threads=2":           "59c0d680b7dd7faa890aa71720abc297ece66745c1421d7f96c1b98780967f19",
	"lap3d:20/ILU0-TRSV/threads=4":           "0bb4ccf5704b0466edce6ebc6bfb2456c1def9e9d4e6a217e8ed3f7f8605ee03",
	"lap3d:20/MV-MV/lbc/threads=2":           "5d9a94510315565945f7535cb2c1a75dfe9342d90a38a86aa07f046db4b5bed4",
	"lap3d:20/MV-MV/lbc/threads=4":           "345177703b7c16cae468fd8f4598efca44ea1089911824864d79c0d54638f26f",
	"lap3d:20/MV-MV/threads=2":               "bd89cbeb6247d6fa2afc1cb76ab144361946259984684c100e2977b55ae2d3a5",
	"lap3d:20/MV-MV/threads=4":               "ea9822857947c831fbef3afd7516509c0f72df178434aa1668bdc644731db56f",
	"lap3d:20/TRSV-MV/lbc/threads=2":         "fae3ed301348d69312097b61c44dc6fce81b3e8178a7261778da458a6dd857cb",
	"lap3d:20/TRSV-MV/lbc/threads=4":         "c7b0e57c87b55ccef755214b593e5db07fc1ea8552f3fafeaf91ccbf44ba9294",
	"lap3d:20/TRSV-MV/threads=2":             "51b168a0b7970deba2462b407d855b043863503903ce1f06aba9a36186c7a99b",
	"lap3d:20/TRSV-MV/threads=4":             "08c17cf7f63cd25b004f859b6e91dbeba06697debf43528663535dc824154edd",
	"lap3d:20/TRSV-TRSV/lbc/threads=2":       "f2c7fe8a5da6083c7d1c41e3d8e5369bb2af050c3680095a677e75cc42f88e6f",
	"lap3d:20/TRSV-TRSV/lbc/threads=4":       "3fb34e4850c5a9eb62ad98641f79c8b415c837000a8dc1709391ea2b2f71e9cf",
	"lap3d:20/TRSV-TRSV/threads=2":           "c452cbdfbbcb47be61bc050ec87194b053b234a7506a73a0629a7c87f21237bf",
	"lap3d:20/TRSV-TRSV/threads=4":           "835dec50f86a31d9318bfd3ef5121edadf1e71a13b0eea527d02278ace937d18",
	"pow:8000:6/DAD-IC0/lbc/threads=2":       "5e27d075a85673dc5d49d59eff02f9faa1186ae727548d070056783fb9989fb2",
	"pow:8000:6/DAD-IC0/lbc/threads=4":       "2bb3f9663c0c1ba902d1b9f40a0c4dc84c97e812652231aec7e47aeb0ca2084a",
	"pow:8000:6/DAD-IC0/threads=2":           "51aa3183a9957c3c7504a9c98221d6d0d8ad72ef12ab6aff97980a5eeedef0d6",
	"pow:8000:6/DAD-IC0/threads=4":           "09960fd505fca30159cd64f0d8150cbaac4ef31512d85f50ffcbe007aed2b70a",
	"pow:8000:6/DAD-ILU0/lbc/threads=2":      "5e27d075a85673dc5d49d59eff02f9faa1186ae727548d070056783fb9989fb2",
	"pow:8000:6/DAD-ILU0/lbc/threads=4":      "94ef88f011ccb84d30af1d17f9a098f3bdc8d698df9eff88942c5622cf621832",
	"pow:8000:6/DAD-ILU0/threads=2":          "c303bf17b8ef0ccbbcece2d4d93b7a1098c63943ea71d64178e9ca73d4570af4",
	"pow:8000:6/DAD-ILU0/threads=4":          "c5bf5b6da270eaf6c0a271f4f2974bb50d4c3b51ae02187b7d7c4420d839acdb",
	"pow:8000:6/IC0-TRSV/lbc/threads=2":      "623bd374a53519dc4d4508848d12ef6894741c52c26dec7b4d98c4c4f9c5041f",
	"pow:8000:6/IC0-TRSV/lbc/threads=4":      "e7c022ffe73d80d97e834705c48fa30ad9f5cd79ac04a4d56e26f1cf2df80a03",
	"pow:8000:6/IC0-TRSV/threads=2":          "1cda09190aa2c5cf2181e644deed1e7f0f022984b89051b3da3268a9b1f31656",
	"pow:8000:6/IC0-TRSV/threads=4":          "8532a5ff857e8d262774052daccaa64e92cd9cb57cd71fbfb4326d1aace9d4a0",
	"pow:8000:6/ILU0-TRSV/lbc/threads=2":     "8b2a39999019c2b086cf4c7e29453c8c7c42c6b6ed840ec5207a5b24a4f9a6fb",
	"pow:8000:6/ILU0-TRSV/lbc/threads=4":     "6d1c32ff33ade1bc9314260848e2363d7571f3d02c0065467fd816e49d006554",
	"pow:8000:6/ILU0-TRSV/threads=2":         "11a3fc558a24979a47e1f0ab2bc532933b66839f4bd7c6bd05f7b49deade984e",
	"pow:8000:6/ILU0-TRSV/threads=4":         "5b8dbe9b8888bd7ef5dbf7f084f9b36aa0b7b93debf4751949d57b5ff9a0f3db",
	"pow:8000:6/MV-MV/lbc/threads=2":         "42734d29a21c95d0bf0638e724923b751adfde332a7d336feb4eaa0abc5c805b",
	"pow:8000:6/MV-MV/lbc/threads=4":         "e90dc1d6cb6862def4745376520a7e1bd4f6ab183dc2be1f244d58dbc46771eb",
	"pow:8000:6/MV-MV/threads=2":             "03e5ae19c900042839e86f09ab445c3b3f04998f08ea99898470bca90d2d01c4",
	"pow:8000:6/MV-MV/threads=4":             "e0fa615962facaa540a5798f3648099d11bb91270073b1613b2050b2c947396a",
	"pow:8000:6/TRSV-MV/lbc/threads=2":       "36cd692fba66a8478ec3b127d0c2284bf51f9a3f6a4c03eaedc0199f6a1fbcda",
	"pow:8000:6/TRSV-MV/lbc/threads=4":       "fbe105325e2214e67a94f0fb9cbdab3e06d3618e7ca9580777c2bdd86b1518c2",
	"pow:8000:6/TRSV-MV/threads=2":           "7e57b3797632819605956d25914382ddb0f252b583359b77016cc0ef49e76378",
	"pow:8000:6/TRSV-MV/threads=4":           "c6043437f3a24328b7271ad820b305471d094b141b17fe07cd4ce756395354da",
	"pow:8000:6/TRSV-TRSV/lbc/threads=2":     "8b2a39999019c2b086cf4c7e29453c8c7c42c6b6ed840ec5207a5b24a4f9a6fb",
	"pow:8000:6/TRSV-TRSV/lbc/threads=4":     "6d1c32ff33ade1bc9314260848e2363d7571f3d02c0065467fd816e49d006554",
	"pow:8000:6/TRSV-TRSV/threads=2":         "e99326701c2d73701679a49f1700ac200239b9eaa4450617d36ff2bbf2d48ca2",
	"pow:8000:6/TRSV-TRSV/threads=4":         "bf774136cb178d6bb3c57f8f95dba43c9a81c87cc423b0745ac54272dd1aa590",
	"random/00/loops=5/threads=6/reuse=0.24": "acaf47f218100a72e578203ca19fd91705460744033b4a4ef735e4d4d482d26c",
	"random/01/loops=5/threads=7/reuse=1.81": "c0b009de00a34058e3af10e0c2caebd3b3ef060cf899e0115303841295c175fb",
	"random/02/loops=6/threads=7/reuse=0.33": "cccca5cb74f883a30d98179fa13c30ba73d1d1eaa6bb998e82ada64e0bc9677e",
	"random/03/loops=6/threads=3/reuse=1.77": "2b3a9208af0345a6121b73a5400c63c7121ccb5077e63df698b8da477a88a846",
	"random/04/loops=3/threads=4/reuse=0.80": "3ab79df9a655ed239c8a1010440d8439c8955e50bf5346f4e56429f1f864920a",
	"random/05/loops=6/threads=8/reuse=1.94": "264c295e19fbe958a7f1d917f9ceef008d124e59437673c6effc390555956e4b",
	"random/06/loops=3/threads=3/reuse=0.56": "1b6c6f3b2eb25d351744c5a5c418f76c4979e8a99cc4e686b349990af7c42971",
	"random/07/loops=4/threads=6/reuse=1.42": "2259a95f0e57dcb74dc2e7f1a80e61cbe4014379ee282a30c11bcd356c96676d",
	"random/08/loops=4/threads=7/reuse=0.15": "a643ae04d4f907507cfb90127f9f712877e56019ed255bcf9d7840c850019344",
	"random/09/loops=4/threads=3/reuse=1.60": "4abdec3921f57468564ac69e926285ba0f411019ffde946158101c11ee610d4f",
	"random/10/loops=6/threads=8/reuse=0.20": "a9e6eb642a6f7f56b33d7414ec0e34306a89c06c0e561f67566cb6b984206b08",
	"random/11/loops=3/threads=8/reuse=1.55": "ecd55a5a9b7a7375ac94a28529173ed8d9f18ccac5ef2fd5c9806e8b12cebd57",
	"random/12/loops=5/threads=8/reuse=0.75": "92409b385d77aeb0e694b454dfbf2127601c50a0b87dabe69f13896b3be902cd",
	"random/13/loops=6/threads=3/reuse=1.99": "b873bc997c93cc429047fad09508c9772228912d508281e27851eb233b190340",
	"random/14/loops=3/threads=7/reuse=0.87": "e14f287c54a4691a80b642571e2d60719f4a8801c5bba3cc32f9d9e8148b0998",
	"random/15/loops=4/threads=3/reuse=1.90": "dcc1e0938554a744e27dab61f49e37bafa4b87ccd79023573f9dcc9587f76737",
}
