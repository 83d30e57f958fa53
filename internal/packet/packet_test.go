package packet

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if Signaling.String() != "signaling" || Request.String() != "request" || Video.String() != "video" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include its number")
	}
}
