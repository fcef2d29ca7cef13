package ml

// Test-only exports for the external artifact tests and fuzz target.
var (
	LegacyArtifact        = legacyArtifact
	AssertSamePredictions = assertSamePredictions
	FuzzSeedModels        = fuzzSeedModels
	EnsembleArtifact      = ensembleArtifact
	RemovedKindArtifact   = removedKindArtifact
	MarginLiterals        = marginLiterals
)
