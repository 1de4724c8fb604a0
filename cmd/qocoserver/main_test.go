package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

func TestCheckNotNegative(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error; "" for none
	}{
		{nil, ""},
		{[]string{"-max-jobs", "0", "-queue", "0", "-rate", "0", "-burst", "0", "-queue-timeout", "0s"}, ""},
		{[]string{"-queue", "-1"}, "-queue -1"},
		{[]string{"-max-jobs", "-1"}, "-max-jobs -1"},
		{[]string{"-rate", "-0.5"}, "-rate -0.5"},
		{[]string{"-burst", "-2"}, "-burst -2"},
		{[]string{"-queue-timeout", "-1s"}, "-queue-timeout -1s"},
	} {
		fs := flag.NewFlagSet("qocoserver", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("max-jobs", 64, "")
		fs.Int("queue", 0, "")
		fs.Float64("rate", 0, "")
		fs.Float64("burst", 0, "")
		fs.Duration("queue-timeout", 10*time.Second, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := checkNotNegative(fs, "max-jobs", "queue", "rate", "burst", "queue-timeout")
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: error %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}
