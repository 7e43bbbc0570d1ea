package modin

// BitDiff is bitDiff for the external test package, whose tests drive the
// cluster coordinator and the session store over MODIN results.
var BitDiff = bitDiff
