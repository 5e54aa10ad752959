package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/lbc"
	"sparsefusion/internal/sparse"
)

// seedRandomDigests are the SHA-256 of the seed's serial inspector's
// Schedule.Bytes on the 40 random problems of seedRandomProblem, in draw order
// from seed 99.
var seedRandomDigests = []string{
	"ee19f42f3f6e1a40226516dab9e9bb5c9ea4699f729cb419e3ab2a3d47e1d05c",
	"71162b3ab870686ff5a60ccfae8d8be528cdca5d40cc732bf7ef7b8640ed2c96",
	"2ffaa39c64cac6c64910b365dca92c5a94c5ba26b2347f7fb76f98b37217bd42",
	"228a495e6cdf22a1f56e00f68f8628a78826cd84d3bfba260f4cfb9dbb91caf3",
	"e1ab4330f2b47441a07fafccf27e02af3165442e3b68f4388eb3a2d4bcf3b636",
	"1b604942d596ab32e67db621957b480bcfc379045af95221997bfe722c42bceb",
	"3ec2b79006143b94cffde6f9cd1a597f74a16e3e63204a2bd7e390460ec7c910",
	"52c827f6629482142200de9f00649704f40ffece0b4152be7d3a3f9e80feafdb",
	"335dda050ce9329267eb4dd4d728313fbab112394b838043905a6c91c37f608b",
	"2ef30a26aa5d4cbf99d90911d0f7f617b1de19ddc27ab7850ca6d92249866333",
	"f85f389437bde837df230e87c5d46daf9e34bcb99d501bdc3d7a5edd86907b0d",
	"977f32e65d0ae9f9665e40230a95883b467a9b56f82bc39336731750e3cf4473",
	"088b84c81af1e78cce79a96f260ac9c95d6430f1b6a083605ce7360abbc5c0bb",
	"fb91aaf8f1137ce733c5cbe0868185ef0d81c6d62c9dc2fcf136a22f0ce968dd",
	"5e12808a9a9ce98b6ef380ece39947b43db53304ab7eb850efccf75cb91b4f66",
	"d4daa36da3257a314ae1c2c2dcfa06f6c297dec8fbb4eac5979b7ba67e5a4d48",
	"643c5101509ed1fa7e4fddfc503d68a86ea7a636836dd64d4308c8c4cdf048e0",
	"7437187a32cbf9c028e6657aa858fa49b14de65b05038e97948a5fe5ead3fa06",
	"3b6eac8cc333691ab968f9aac5ae0157367b1c182e3d998a69179b14585b0040",
	"42111f07d3aa49cc3538726e094b57902f681629178d350c09f01df2402b8ea8",
	"113180ed6b15dd39ac0355982447dc11e54802350ae6db0a276459276c182fea",
	"88775e8001d68cc3166dced12a4e76f40694b842c3b73c2e14fb502a69824ff7",
	"63f076dd383b7eadd30d627b22e64392d92a9e3efcb086dd64131f01ef768038",
	"81ffb70ce50179c2577a16c46438bcf14ea39910c9742e5595c50433d62a5b61",
	"a93ca4a00905c5d680b2e82761f8e889a88644e0d90517509f1b9e819097fbda",
	"153d4cf862e4a60d9d49344c7fb60271ee77a804655179c2060d03995b482f9a",
	"c5196f19d6279682c13f98864db1803953084bb587b025b5386a287dec323816",
	"e1c489b7ea2718189309b20914f78c89831c43779591be0f7087b0afecd45c89",
	"a36b3add35c8fe833b42cb6ad5e74d53d0b970711123051ddccb510ce2ba414f",
	"2d5363eeb3a4639b1114fa09d22c978b4b8e8b11df2d75ff7d5e9140bf775e39",
	"918edfad5a5eca6fb6782c9edd50fc636b990677c42a76bac7c03e328fbb52f5",
	"3a657adc0bfa712786a690bc3fcf0e056226e608874a7037e2ce8d50f88f5845",
	"7e564f565adcf9bca89e9754d2920b26446f86997224635b817760f36cc9b87e",
	"042cae15c6e169a60761bdab5706877a8d890158c1b45b2053ca95780cc09a73",
	"26fe6d9a89cfc12987f99608409798949773f5b458a57fdc4f8015c47f4f14f8",
	"e63ca0a573e1eb50fc42a96180594e653cf8a17b70841f37adeea7dd2f0a31b8",
	"ac33ba55dec624775dea3e71ab06a16961bedaa04a87cdf87bebd9d560b87d78",
	"8655e93cbf7916145645512700fd48d31184587ce7ccfe565b410f09e5095100",
	"2a2f7ecb7b2037ff337f5475785f56c194f80ed464b33c23422c61487b613b1c",
	"98c8241ad187fba2251215b4052f58bac57a8c3d34a84e6fc6490d6bf935ac2c",
}

// seedReversedDigests are the same for the 15 two-loop reversed-head problems
// of seedReversedProblem, in draw order from seed 123.
var seedReversedDigests = []string{
	"3f745e0ce21891428f5d2065d40fb539e3510a1865a1545b495854ffe51b661b",
	"63f29e5cd645ab003f07c06146c29526c79de709082cb2bb6a97393864442a01",
	"f0f7c9efd522e9d93a69a74f7810c6094efe91de48850f7f56fb9b25dcc4a9a1",
	"0499170452e6c17162a2f5d87a03aa2100f1b7db2c7d38c8766b08eed4114bb6",
	"717584e385cdc730e39d24df4becef290a18f5cfcd3c9610179548bbc61f4942",
	"d99b428d8ff1abe3e9d9147dde2a89a17390a5329e802464c4c2e065b9f1354c",
	"e4836bb55e692475b495e4e26e3fe74016edb2d314640c613a317febf01d4f29",
	"ac6ee7fb3bed514976886e2638e7176e4f8a1d81e120f84241d50d38154ae7c7",
	"5a0700256dbd330a520e9395a0475f6416a21ea1d172aaf2ede33362e2898575",
	"b44754f471b251d23c93dd20ce40c1ba57faad912cc3500ff5bf30f8b90cf264",
	"c4e78c52183a50c9053fb735f1be3b573560beaa2f2ce09d84517ffd92c59b52",
	"e4c8f83403b573dbfaeed34fb259983f856fc8a6f0a9eb773554eaaea4eb3ac9",
	"6fdfe5e49620a73549a62df778ccbe7c5b2a7bc2e6b75b9681cbffd79520e23b",
	"6a0e1b84ec90bcadbaabba5ac75eac931846e18bb32af32c093b97f4f2381398",
	"b4e38ed4ca1ba26192739271b2e75172e18f4f8fc030bacc1244211c0d465917",
}

// seedRandomProblem draws one random fusion problem and the Params to inspect
// it with.
func seedRandomProblem(rng *rand.Rand) (*Loops, Params) {
	n := 20 + rng.Intn(120)
	loops := randomLoops(rng, n)
	return loops, Params{
		Threads:      2 + rng.Intn(7),
		ReuseRatio:   rng.Float64() * 2,
		LBC:          lbc.Params{InitialCut: 1 + rng.Intn(5), Agg: 1 + rng.Intn(20)},
		DisableMerge: rng.Intn(4) == 0,
		DisableSlack: rng.Intn(4) == 0,
	}
}

// seedReversedProblem draws a two-loop problem whose second DAG has edges and
// whose F is lower triangular with a full diagonal: the reversed-head path,
// which the random corpus only sometimes draws.
func seedReversedProblem(rng *rand.Rand) (*Loops, Params) {
	n := 30 + rng.Intn(100)
	a := sparse.Must(sparse.RandomSPD(n, 3, rng.Int63()))
	b := sparse.Must(sparse.RandomSPD(n, 4, rng.Int63()))
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 1})
		if i > 0 {
			ts = append(ts, sparse.Triplet{Row: i, Col: rng.Intn(i), Val: 1})
		}
	}
	f, err := sparse.FromTriplets(n, n, ts)
	if err != nil {
		panic(err)
	}
	loops := &Loops{G: []*dag.Graph{dag.FromLowerCSR(a.Lower()), dag.FromLowerCSR(b.Lower())}, F: []*sparse.CSR{f}}
	return loops, Params{Threads: 2 + rng.Intn(7), ReuseRatio: rng.Float64() * 2}
}

// TestICOMatchesSeedCorpus holds ICO to the seed's serial inspector on the
// corpus that inspector was checked on: 40 random problems (10 under -short)
// and 15 reversed-head problems. At GOMAXPROCS 1, 2, 4 and 8 every schedule
// must be valid and serialize to the bytes the seed produced, by SHA-256.
func TestICOMatchesSeedCorpus(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	check := func(name string, loops *Loops, p Params, want string) {
		t.Helper()
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			sched, err := ICO(loops, p)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
			}
			if err := loops.Validate(sched); err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: invalid schedule: %v", name, procs, err)
			}
			sum := sha256.Sum256(sched.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("%s GOMAXPROCS=%d: schedule %s, seed %s (n=%d, %d loops, r=%d, reuse=%.2f, merge=%v, slack=%v)",
					name, procs, got, want, loops.G[0].N, len(loops.G), p.Threads, p.ReuseRatio, !p.DisableMerge, !p.DisableSlack)
			}
		}
	}
	rng := rand.New(rand.NewSource(99))
	trials := len(seedRandomDigests)
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		loops, p := seedRandomProblem(rng)
		check(fmt.Sprintf("random trial %d", trial), loops, p, seedRandomDigests[trial])
	}
	rng = rand.New(rand.NewSource(123))
	for trial, want := range seedReversedDigests {
		loops, p := seedReversedProblem(rng)
		check(fmt.Sprintf("reversed-head trial %d", trial), loops, p, want)
	}
}
