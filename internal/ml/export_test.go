package ml

// Test-only exports for the external legacy-artifact tests.
var (
	LegacyArtifact        = legacyArtifact
	AssertSamePredictions = assertSamePredictions
)
