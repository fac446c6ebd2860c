package truth

// ZeroChangeDiscover is zeroChangeDiscover for the package's external
// tests.
var ZeroChangeDiscover = zeroChangeDiscover
