package reunion

// Wire-schema pin, enforced by the wireversion analyzer (internal/lint,
// cmd/reunion-lint). wireSchemaPinDigest is a canonical digest of every
// named type reachable from DecodedCheckpoint (plus the descriptor types
// in serialize.go's decode switches), excluding fields annotated
// //reunion:derived, //reunion:shared, or //reunion:wire-compat.
//
// If the lint fails here, a checkpoint-reachable type changed shape.
// Either the payload encoding really changed — then bump
// ckptFormatVersion (serialize.go) and refresh both constants below with
// `reunion-lint -wirepin` in the same commit — or the edit is
// wire-compatible (rename, encoder-skipped field) and the field should
// carry a //reunion:wire-compat annotation saying why.
const (
	wireSchemaPinVersion uint16 = 3
	wireSchemaPinDigest         = "54c0de46bb5656b0"
)
