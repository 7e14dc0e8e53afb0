package ps

import (
	"net"
	"testing"
	"time"

	"hetkg/internal/chaos"
	"hetkg/internal/kg"
)

// TestReconnectGoldenAcrossProfiles is the reconnect × codec matrix: for
// every negotiable profile, a transport that loses its connection mid-run
// and reconnects transparently must stay correct. Three golden
// assertions, twin-run framed:
//
//  1. Server rows after the fault run are bit-identical to a never-
//     disconnected twin run fed the identical pull/push sequence (push
//     codecs are stateless, and the link layer never double-applies).
//  2. The first post-reconnect pull is bit-identical to a freshly-dialed
//     control transport's pull of the same keys — the reconnect reset
//     delta base state to the version-0 unbased sentinel on BOTH ends,
//     so the shard frames full rows, exactly like a fresh link.
//  3. For stateless-pull profiles (everything but delta-int8), every
//     pull in the fault run is bit-identical to the twin run's. Delta
//     pulls legitimately differ after a reconnect (full-framed int8
//     quantizes the absolute value, delta-framed the difference), which
//     is why assertion 2 compares against a fresh dial instead.
func TestReconnectGoldenAcrossProfiles(t *testing.T) {
	const dim, entities, nkeys, rounds = 16, 32, 8, 3
	for _, profName := range ProfileNames() {
		prof, err := ResolveProfile(profName)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(profName, func(t *testing.T) {
			vict := testClusterDim(t, 1, entities, dim)
			ctrl := testClusterDim(t, 1, entities, dim)
			// The victim's first connection resets on every shard-side read
			// from index faultAt on. Chaos rules are keyed on call indices,
			// not on when they are added, so the fault lands at the same
			// point of the exchange on every run: the shard reads one
			// request per Read call (each is one small flushed write), i.e.
			// the codec hello, then a pull and a push per pre-fault round,
			// then the burn pull — and the read after that resets.
			const faultAt = 1 + 2*rounds + 1
			inj := chaos.NewInjector(chaos.Rule{
				Conn: 0, Op: chaos.OpRead, After: faultAt, Count: -1, Fault: chaos.FaultReset,
			})
			vaddr := chaosShard(t, vict, inj)
			cl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			go ServeTCP(cl, ctrl.Servers[0])

			dial := func(addr string) *LinkTransport {
				t.Helper()
				tr, err := DialTCPLink([]string{addr}, profName, LinkConfig{
					RPCTimeout: 2 * time.Second, Retries: 3, Seed: 11,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tr.Close() })
				return tr
			}
			vtr, ctr := dial(vaddr), dial(cl.Addr().String())

			keys := make([]Key, nkeys)
			for i := range keys {
				keys[i] = EntityKey(kg.EntityID(i))
			}
			// grads is a fresh deterministic gradient batch per round —
			// fresh per call because EncodeRow writes decoder-visible
			// values back into its input.
			grads := func(round int) []float32 {
				g := make([]float32, nkeys*dim)
				for i := range g {
					g[i] = 0.01 * float32((round*31+i)%17)
				}
				return g
			}
			step := func(tr *LinkTransport, round int) []float32 {
				t.Helper()
				resp, err := tr.Pull(0, &PullRequest{Keys: keys})
				if err != nil {
					t.Fatalf("round %d pull: %v", round, err)
				}
				if err := tr.Push(0, &PushRequest{Keys: keys, Vals: grads(round)}); err != nil {
					t.Fatalf("round %d push: %v", round, err)
				}
				return resp.Vals
			}
			mustEqual := func(what string, got, want []float32) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d values vs %d", what, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: value %d differs: %v vs %v", what, i, got[i], want[i])
					}
				}
			}

			// Pre-fault: both transports share an identical history, so
			// every profile — delta included — must pull identical bytes.
			for r := 0; r < rounds; r++ {
				mustEqual("pre-fault pull", step(vtr, r), step(ctr, r))
			}

			// Fault: the reset armed above lands after the burn pull below
			// (mirrored on the control twin in lockstep to keep the push
			// sequences identical); the burn push reconnects.
			burnV := step(vtr, rounds)
			burnC := step(ctr, rounds)
			if !prof.DeltaPull {
				mustEqual("burn pull", burnV, burnC)
			}

			// Assertion 2: first post-reconnect pull == fresh dial's pull.
			vresp, err := vtr.Pull(0, &PullRequest{Keys: keys})
			if err != nil {
				t.Fatalf("post-reconnect pull: %v", err)
			}
			fresh := dial(vaddr)
			fresp, err := fresh.Pull(0, &PullRequest{Keys: keys})
			if err != nil {
				t.Fatalf("fresh-dial pull: %v", err)
			}
			mustEqual("post-reconnect vs fresh dial", vresp.Vals, fresp.Vals)
			// Mirror the pull on the control twin so histories stay in
			// lockstep for the remaining rounds.
			cresp, err := ctr.Pull(0, &PullRequest{Keys: keys})
			if err != nil {
				t.Fatal(err)
			}
			if !prof.DeltaPull {
				mustEqual("post-reconnect vs twin", vresp.Vals, cresp.Vals)
			}

			// Post-fault rounds keep training through the survivor.
			for r := rounds + 1; r < 2*rounds; r++ {
				v, c := step(vtr, r), step(ctr, r)
				if !prof.DeltaPull {
					mustEqual("post-fault pull", v, c)
				}
			}

			// Assertion 1: the shards agree bit-for-bit — the outage
			// neither lost nor double-applied any push.
			got, err := vict.Servers[0].Pull(keys)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ctrl.Servers[0].Pull(keys)
			if err != nil {
				t.Fatal(err)
			}
			mustEqual("final server rows", got, want)
		})
	}
}
