// Package simtest is the serving stack's whole-stack simulation, and it
// holds tests only. One int64 seed becomes a schedule: reports, batches
// and leases over both transports, forest GETs, moves across level-1
// subtrees, preference changes, clock jumps past the budget window, bursts
// of strangers that evict sessions and accountant windows, node restarts
// and forwards dropped by shutting a peer down, over three corgi-server
// nodes on one manual clock. After every barrier the run is held to three
// naive references: a fresh in-process registry's draws, one ledger of the
// ε each user was granted, and, after the last shutdown, the goroutines
// left standing.
package simtest

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"corgi/internal/policy"
)

// The simulated deployment. Every node runs -max-sessions and
// -budget-users sessionCap, -budget-eps budgetDraws draws' worth of ε per
// -budget-window window, and node degradedNode -degraded-serving. User i
// is owned by node i % nodes; its ε spend sits there unless that node is
// down.
const (
	nodes        = 3
	users        = 6
	degradedNode = 2
	// sessionCap bounds sessions and accountant windows per shard. It is
	// above every session the users can hold on one node, so only a
	// strangers step evicts, and then it evicts all of them.
	sessionCap  = 32
	budgetDraws = 8
	window      = 10 * time.Minute
	leaseDraws  = 4
	phases      = 8
)

// pref is a user's preference set: none, one that prunes the far leaves
// of a subtree, or one that prunes all of them, which every path refuses
// with 422.
type pref int8

const (
	prefNone pref = iota
	prefNear
	prefAll
)

var prefNames = [...]string{"none", "near", "all"}

func (p pref) predicates() []policy.Predicate {
	switch p {
	case prefNear:
		return []policy.Predicate{{Var: "distance", Op: policy.OpLe, Val: policy.Number(0.15)}}
	case prefAll: // no leaf is less than 0 km away
		return []policy.Predicate{{Var: "distance", Op: policy.OpLt, Val: policy.Number(0)}}
	}
	return nil
}

// Step operations. Consecutive ask and forest steps form one burst, run
// concurrently with each user's asks in order; every other step is a
// barrier, run alone.
const (
	opAsk       = "ask"
	opForest    = "forest"
	opStrangers = "strangers"
	opJump      = "jump"
	opDown      = "down"
	opRestart   = "restart"
)

// Ask paths. A batch ask names its batch: consecutive asks of one user
// with one batch number go out as one /v1/reports POST or REPORTS frame.
const (
	viaHTTP        = "http"
	viaStream      = "stream"
	viaLeaseHTTP   = "lease-http"
	viaLeaseStream = "lease-stream"
)

// step is one line of a schedule.
type step struct {
	op string
	// node is the node an ask or forest GET enters at (the next one up if
	// it is down), or the node a down or restart step takes down.
	node int
	// An ask: user, path, batch (0: none), policy, the leaf's index in the
	// tree's leaf table, and the draw count.
	user             int
	via              string
	batch            int
	level, precision int
	pref             pref
	cell, count      int
	// delta is a forest GET's.
	delta int
	// jump is a clock jump's length.
	jump time.Duration
}

// leased reports whether an ask draws on the device from a lease.
func (s step) leased() bool { return strings.HasPrefix(s.via, "lease-") }

// String formats s as its schedule line, the form parse reads.
func (s step) String() string {
	switch s.op {
	case opAsk:
		via := s.via
		if s.batch > 0 {
			via += "#" + strconv.Itoa(s.batch)
		}
		return fmt.Sprintf("ask u%d @%d %s l%d/%d %s c%d n%d", s.user, s.node, via, s.level, s.precision, prefNames[s.pref], s.cell, s.count)
	case opForest:
		return fmt.Sprintf("forest @%d l%d d%d", s.node, s.level, s.delta)
	case opJump:
		return "jump " + s.jump.String()
	case opDown, opRestart:
		return fmt.Sprintf("%s %d", s.op, s.node)
	}
	return s.op
}

// format is a schedule, one step per line.
func format(sched []step) string {
	var b strings.Builder
	for _, s := range sched {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// parse reads a schedule in format's form; blank lines and lines starting
// with # are skipped.
func parse(text string) ([]step, error) {
	var sched []step
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseStep(line)
		if err != nil {
			return nil, fmt.Errorf("line %d %q: %w", n, line, err)
		}
		sched = append(sched, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// A stream draws from leases or from the server, never both: a
	// lease's unused positions are forfeited, a server draw's are not.
	leased := map[streamKey]bool{}
	for _, s := range sched {
		if s.op != opAsk {
			continue
		}
		k := keyOf(s)
		if was, ok := leased[k]; ok && was != s.leased() {
			return nil, fmt.Errorf("stream %v asks both by lease and by report", k)
		}
		leased[k] = s.leased()
	}
	return sched, nil
}

func parseStep(line string) (step, error) {
	f := strings.Fields(line)
	s := step{op: f[0]}
	var err error
	num := func(field, prefix string, lo, hi int) int {
		v, perr := strconv.Atoi(strings.TrimPrefix(field, prefix))
		if err == nil && (perr != nil || !strings.HasPrefix(field, prefix) || v < lo || v > hi) {
			err = fmt.Errorf("field %q: want %s<%d..%d>", field, prefix, lo, hi)
		}
		return v
	}
	switch {
	case s.op == opAsk && len(f) == 8:
		s.user = num(f[1], "u", 0, users-1)
		s.node = num(f[2], "@", 0, nodes-1)
		via, batch, isBatch := strings.Cut(f[3], "#")
		if s.via = via; isBatch {
			s.batch = num(batch, "", 1, 1<<30)
		}
		if via != viaHTTP && via != viaStream && via != viaLeaseHTTP && via != viaLeaseStream || isBatch && s.leased() {
			return s, fmt.Errorf("path %q", f[3])
		}
		level, precision, _ := strings.Cut(f[4], "/")
		s.level = num(level, "l", 1, 2)
		s.precision = num(precision, "", 0, s.level-1)
		s.pref = -1
		for p, name := range prefNames {
			if f[5] == name {
				s.pref = pref(p)
			}
		}
		if s.pref < 0 {
			return s, fmt.Errorf("preference %q", f[5])
		}
		s.cell = num(f[6], "c", 0, 1<<30)
		s.count = num(f[7], "n", 1, leaseDraws)
	case s.op == opForest && len(f) == 4:
		s.node = num(f[1], "@", 0, nodes-1)
		s.level = num(f[2], "l", 1, 2)
		s.delta = num(f[3], "d", 0, 1<<30)
	case s.op == opStrangers && len(f) == 1:
	case s.op == opJump && len(f) == 2:
		if s.jump, err = time.ParseDuration(f[1]); err == nil && s.jump <= 0 {
			err = fmt.Errorf("jump %v", s.jump)
		}
	case (s.op == opDown || s.op == opRestart) && len(f) == 2:
		s.node = num(f[1], "", 0, nodes-1)
	default:
		return s, fmt.Errorf("unknown step")
	}
	return s, err
}

// user is what generate keeps of one simulated user: whether it draws
// from leases, and the two level-1 subtrees it commutes between.
type user struct {
	leased     bool
	home, work int
}

// generate turns seed into a schedule of phases bursts, each followed by
// one barrier, then a closing burst in which the degraded node's users
// ask at privacy level 2. That is the first level-2 ask of the run, so
// the degraded node answers it from its fallback and starts the K=49
// upgrade solve the last shutdown has to wait for.
func generate(seed int64) []step {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	const subtrees, subtreeLeaves = 7, 7
	var us [users]user
	for i := range us {
		us[i] = user{leased: i%3 == 1, home: rng.IntN(subtrees)}
		us[i].work = (us[i].home + 1 + rng.IntN(subtrees-1)) % subtrees
	}
	var sched []step
	down, batches := -1, 0
	burst := func(final bool) {
		for u := range us {
			at := us[u].home
			if rng.IntN(2) == 0 {
				at = us[u].work
			}
			for a, asks := 0, rng.IntN(4); a < asks; a++ {
				if rng.IntN(4) == 0 { // a move across level-1 subtrees
					at = us[u].home + us[u].work - at
				}
				s := step{op: opAsk, user: u, node: rng.IntN(nodes), level: 1,
					cell: at*subtreeLeaves + rng.IntN(subtreeLeaves), count: 1 + rng.IntN(3)}
				switch r := rng.IntN(20); {
				case r == 0:
					s.pref = prefAll
				case r < 5:
					s.pref = prefNear
				}
				if us[u].leased {
					s.via, s.count = viaLeaseHTTP, 1+rng.IntN(2)
					if rng.IntN(2) == 0 {
						s.via = viaLeaseStream
					}
					sched = append(sched, s)
					continue
				}
				s.via = viaHTTP
				if rng.IntN(2) == 0 {
					s.via = viaStream
				}
				if rng.IntN(3) > 0 {
					sched = append(sched, s)
					continue
				}
				// A batch: this ask and one on another of the user's streams.
				batches++
				s.batch = batches
				t := s
				t.pref, t.cell = (s.pref+1)%prefAll, at*subtreeLeaves+rng.IntN(subtreeLeaves)
				sched = append(sched, s, t)
			}
			if final && u%nodes == degradedNode {
				sched = append(sched, step{op: opAsk, user: u, node: rng.IntN(nodes), via: viaHTTP,
					level: 2, precision: rng.IntN(2), cell: rng.IntN(subtrees * subtreeLeaves), count: 1 + rng.IntN(3)})
			}
		}
		if !final && rng.IntN(2) == 0 {
			s := step{op: opForest, node: rng.IntN(nodes), level: 1, delta: rng.IntN(4)}
			if rng.IntN(4) == 0 {
				s.delta = subtreeLeaves + rng.IntN(3) // past the bound: 422
			}
			sched = append(sched, s)
		}
	}
	for p := 0; p < phases; p++ {
		burst(false)
		switch r := rng.IntN(9); {
		case r < 3:
			sched = append(sched, step{op: opJump, jump: window + time.Second})
		case r < 6:
			sched = append(sched, step{op: opStrangers})
		case r < 7 && down < 0:
			down = rng.IntN(nodes)
			sched = append(sched, step{op: opDown, node: down})
		default:
			n := rng.IntN(nodes)
			if down >= 0 && rng.IntN(3) > 0 {
				n = down
			}
			if n == down {
				down = -1
			}
			sched = append(sched, step{op: opRestart, node: n})
		}
	}
	if down >= 0 {
		sched = append(sched, step{op: opRestart, node: down})
	}
	burst(true)
	return sched
}
