// check_trace — CI gate for --trace output. Python-free on purpose: the
// build-and-test job validates the uploaded trace artifact with this binary
// alone. Exit 0 iff the file parses as Chrome trace_event JSON (see
// obs/trace_check.h) and contains at least `--min-events` events.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/trace_check.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace exthash;
  ArgParser args("check_trace",
                 "validate a Chrome trace_event JSON file (exit 0 iff it "
                 "parses and is non-empty)");
  args.addStringFlag("file", "", "trace file to validate");
  args.addUintFlag("min-events", 1, "minimum required event count");
  if (!args.parse(argc, argv)) return 0;
  const std::string path = args.getString("file");
  const std::uint64_t min_events = args.getUint("min-events");
  if (path.empty()) {
    std::cerr << "check_trace: --file is required\n";
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "check_trace: cannot open " << path << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const obs::TraceCheckResult result = obs::checkTraceJson(text);
  if (!result) {
    std::cerr << "check_trace: " << path << ": " << result.error << "\n";
    return 1;
  }
  if (result.events < min_events) {
    std::cerr << "check_trace: " << path << ": only " << result.events
              << " events (need >= " << min_events << ")\n";
    return 1;
  }
  std::cout << "check_trace: " << path << ": ok (" << result.events
            << " events)\n";
  return 0;
}
