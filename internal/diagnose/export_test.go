package diagnose

// MultiSinkCase exposes the 3-sink 4x4 array of the planner tests to the
// external diagnose_test package.
var MultiSinkCase = multiSinkCase
