package proto

import (
	"corgi/internal/core"
	"corgi/internal/loctree"
)

// Wire format v2 is a list of core.CompactEntry: each entry's rows pack
// into one internal/codec blob (see its package comment for the byte
// layout and error bounds), base64-framed by JSON. The forest store's
// snapshots are the same list, so a snapshot and a v2 response carry
// identical entry bytes, and core.DecodeForest validates both.

// ContentTypeForestV2 is the negotiated media type for the compact forest
// encoding. Clients request it via Accept; the server confirms it via
// Content-Type. Plain "application/json" keeps the v1 dense encoding.
const ContentTypeForestV2 = "application/x-corgi-forest-v2+json"

// ForestResponseV2 carries the whole privacy forest in the v2 encoding.
type ForestResponseV2 struct {
	PrivacyLevel int                 `json:"privacy_l"`
	Delta        int                 `json:"delta"`
	Entries      []core.CompactEntry `json:"entries"`
}

// EncodeForestV2 converts a generated forest into the compact wire form.
// Entries are emitted in the tree's level-node order for determinism.
func EncodeForestV2(tree *loctree.Tree, forest *core.Forest) (*ForestResponseV2, error) {
	entries, err := forest.Compact(tree)
	if err != nil {
		return nil, err
	}
	return &ForestResponseV2{PrivacyLevel: forest.PrivacyLevel, Delta: forest.Delta, Entries: entries}, nil
}
