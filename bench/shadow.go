package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"corgi/internal/budget"
	"corgi/internal/loctree"
	"corgi/internal/mechanism"
	"corgi/internal/registry"
	"corgi/internal/session"
)

// Stage span names of the shadow pipeline, in call order. Each is one call
// (or one small group of calls) into a layer's public API; the per-layer
// metric that reports its median is named in suite.pipeline.
const (
	spanResolve     = "registry.Shard"
	spanValidate    = "Tree.Contains+Policy.Validate+Tree.AncestorAt"
	spanCharge      = "budget.Accountant.Charge"
	spanSessionKey  = "session.PolicyFingerprint"
	spanLookup      = "session.Manager.Get"
	spanEvalPrune   = "Shard.Attrs+mechanism.EvalPreferences"
	spanServeEntry  = "core.Server.ServeEntryCtx"
	spanSessionNew  = "session.New"
	spanAnchorCheck = "Session.Root+Session.Anchor"
	spanRebind      = "Session.Rebind"
	spanDraw        = "Session.DrawCellNInto"
	spanCenters     = "Tree.Center"
)

// shadow replays registry.Report's call sequence through the public API of
// the layers beneath it, so the harness can put a span around every stage
// without instrumenting internal/. It serves from the registry's own shard
// (tree, engine, metadata) but owns its sessions and accountant, so it can
// run beside the real pipeline without sharing a user's RNG stream.
//
// It must stay a faithful copy: every run checks that the real pipeline
// draws exactly what the shadow drew for the same requests.
type shadow struct {
	reg      *registry.Registry
	sessions *session.Manager
	acct     *budget.Accountant
	rec      *recorder
	out      [1]loctree.NodeID
}

func newShadow(reg *registry.Registry, rec *recorder) (*shadow, error) {
	acct, err := budget.NewAccountant(budget.Config{LimitEps: 1e15, Window: time.Hour})
	if err != nil {
		return nil, err
	}
	return &shadow{reg: reg, sessions: session.NewManager(0), acct: acct, rec: rec}, nil
}

// shadowResult is what one shadow report produced and how it got there.
type shadowResult struct {
	node, root          loctree.NodeID
	created, reanchored bool
}

// stage closes the stage that began at since and returns the next stage's
// start: consecutive stages share one clock read, so an op's stage spans
// tile its interval with no gaps.
func (s *shadow) stage(name string, parent, op int32, since int64) int64 {
	if s.rec == nil {
		return 0
	}
	now := nanos()
	s.rec.end(s.rec.begin(name, parent, op, since), now)
	return now
}

// report is registry.Report, spelled out. parent is the op's root span
// (ignored when the shadow records nothing).
func (s *shadow) report(ctx context.Context, o *replayOp, parent int32) (shadowResult, error) {
	var res shadowResult
	req := &o.req
	var t int64
	if s.rec != nil {
		t = nanos()
	}
	sh, err := s.reg.Shard(ctx, req.Region)
	if err != nil {
		return res, err
	}
	t = s.stage(spanResolve, parent, o.idx, t)

	tree := sh.Server.Tree()
	leaf := loctree.NodeID{Level: 0, Coord: req.Cell}
	if !tree.Contains(leaf) {
		return res, fmt.Errorf("%w: cell outside region", registry.ErrBadReport)
	}
	if err := req.Policy.Validate(tree.Height()); err != nil {
		return res, fmt.Errorf("%w: %v", registry.ErrBadReport, err)
	}
	root, ok := tree.AncestorAt(leaf, req.Policy.PrivacyLevel)
	if !ok {
		return res, fmt.Errorf("%w: no ancestor at the privacy level", registry.ErrBadReport)
	}
	res.root = root
	t = s.stage(spanValidate, parent, o.idx, t)

	if _, err := s.acct.Charge(req.UID, sh.Spec.Epsilon); err != nil {
		return res, err
	}
	t = s.stage(spanCharge, parent, o.idx, t)

	key := session.Key{Region: sh.Spec.Name, UID: req.UID, Seed: req.Seed,
		Policy: session.PolicyFingerprint(req.Policy)}
	t = s.stage(spanSessionKey, parent, o.idx, t)

	sess, ok := s.sessions.Get(key)
	t = s.stage(spanLookup, parent, o.idx, t)

	hasPrefs := len(req.Policy.Preferences) > 0
	if !ok {
		pruned, anchor, err := evalPrune(sh, tree, req, root, leaf)
		if err != nil {
			return res, err
		}
		if hasPrefs { // without preferences there is nothing to time
			t = s.stage(spanEvalPrune, parent, o.idx, t)
		}
		entry, err := sh.Server.ServeEntryCtx(ctx, root, len(pruned))
		if err != nil {
			return res, err
		}
		t = s.stage(spanServeEntry, parent, o.idx, t)
		sess, err = s.sessions.GetOrCreate(key, func() (*session.Session, error) {
			return session.New(session.Config{
				Tree: tree, Entry: entry, Delta: len(pruned), Policy: req.Policy,
				Pruned: pruned, Anchor: anchor, Priors: sh.Server.Priors(),
				Seed: req.Seed, Epsilon: sh.Spec.Epsilon,
			})
		})
		if err != nil {
			return res, fmt.Errorf("%w: %v", registry.ErrBadReport, err)
		}
		res.created = true
		t = s.stage(spanSessionNew, parent, o.idx, t)
	}

	moved := sess.Root() != root || (hasPrefs && sess.Anchor() != leaf)
	t = s.stage(spanAnchorCheck, parent, o.idx, t)
	if moved {
		pruned, anchor, err := evalPrune(sh, tree, req, root, leaf)
		if err != nil {
			return res, err
		}
		if hasPrefs {
			t = s.stage(spanEvalPrune, parent, o.idx, t)
		}
		entry, err := sh.Server.ServeEntryCtx(ctx, root, len(pruned))
		if err != nil {
			return res, err
		}
		t = s.stage(spanServeEntry, parent, o.idx, t)
		if err := sess.Rebind(session.Rebind{Entry: entry, Delta: len(pruned), Pruned: pruned, Anchor: anchor}); err != nil {
			return res, fmt.Errorf("%w: %v", registry.ErrBadReport, err)
		}
		res.reanchored = true
		t = s.stage(spanRebind, parent, o.idx, t)
	}

	if err := sess.DrawCellNInto(leaf, s.out[:]); err != nil {
		if errors.Is(err, session.ErrUnsampleable) {
			return res, err // degenerate matrix data: a server fault, not a bad request
		}
		return res, fmt.Errorf("%w: %v", registry.ErrBadReport, err)
	}
	res.node = s.out[0]
	t = s.stage(spanDraw, parent, o.idx, t)

	_ = tree.Center(res.node)
	s.stage(spanCenters, parent, o.idx, t)
	return res, nil
}

// evalPrune evaluates the request's preferences over the subtree's leaves,
// anchored at the true cell. A preference-free policy prunes nothing and
// anchors nowhere — the empty, non-nil set tells session.New not to
// evaluate again.
func evalPrune(sh *registry.Shard, tree *loctree.Tree, req *registry.ReportRequest,
	root, leaf loctree.NodeID) ([]loctree.NodeID, loctree.NodeID, error) {
	if len(req.Policy.Preferences) == 0 {
		return []loctree.NodeID{}, loctree.NodeID{}, nil
	}
	leaves := tree.LeavesUnder(root)
	attrs, err := sh.Attrs(int(req.UID), tree.Center(leaf), leaves)
	if err != nil {
		return nil, loctree.NodeID{}, err
	}
	pruned, err := mechanism.EvalPreferences(leaves, req.Policy, attrs)
	if err != nil {
		return nil, loctree.NodeID{}, fmt.Errorf("%w: %v", registry.ErrBadReport, err)
	}
	if pruned == nil {
		pruned = []loctree.NodeID{}
	}
	return pruned, leaf, nil
}
