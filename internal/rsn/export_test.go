package rsn

// Hooks for the external tests (package rsn_test), which draw their
// networks from internal/bench; bench imports rsn, so those tests
// cannot live in package rsn.

// RewireReference is the former Rewire (reference_test.go).
var RewireReference = rewireReference

// BuildDiamond is the diamond network of the package's tests.
var BuildDiamond = buildDiamond
