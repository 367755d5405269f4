package obs

// ParseTrace exposes the trace parser to the external fuzz test.
var ParseTrace = parseTrace
