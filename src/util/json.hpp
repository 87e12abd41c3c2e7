// The one JSON string escaper: every writer that puts text inside a JSON
// string literal (batch results, lint reports, trace events) goes through
// it, so their output stays valid JSON for any input bytes.
#pragma once

#include <iosfwd>
#include <string_view>

namespace enb::util {

// Writes `text` with '"', '\\', newline and tab escaped as two-character
// sequences and every other byte below 0x20 as a six-character \u00XX
// escape; all other bytes (UTF-8 included) pass through. After a \u
// escape the stream is back in decimal mode with a space fill.
void json_escape(std::ostream& out, std::string_view text);

}  // namespace enb::util
