//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span recorder for the benchmark's traced runs. Each span has
/// a name (the layer, e.g. "fdd.compile"), start and end times in seconds
/// since the recorder was created, the index of its parent span (-1 for a
/// root) and a request id (-1 when the span belongs to no request). Spans
/// are kept in memory and written out once, when the run ends; the
/// self-time arithmetic (span minus child spans) is done by the reader
/// (perfbench/perfstats.py).
///
/// A disabled recorder costs one branch per scope: untraced runs pass a
/// null Tracer and every Span scope is a no-op.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_PERFBENCH_TRACE_H
#define MCNK_PERFBENCH_TRACE_H

#include "serve/Json.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  struct Record {
    const char *Name;
    double Start;
    double End;
    int Parent;
    int64_t Request;
  };

  Tracer() : Origin(Clock::now()) {}

  int begin(const char *Name, int64_t Request) {
    int Id = static_cast<int>(Records.size());
    Records.push_back({Name, now(), -1.0, Current, Request});
    Current = Id;
    return Id;
  }
  void end(int Id) {
    Records[Id].End = now();
    Current = Records[Id].Parent;
  }

  mcnk::serve::Json toJson() const {
    using mcnk::serve::Json;
    Json Out = Json::array();
    for (const Record &R : Records) {
      Json S = Json::object();
      S.set("name", Json::string(R.Name));
      S.set("start", Json::number(R.Start));
      S.set("end", Json::number(R.End));
      S.set("parent", Json::integer(R.Parent));
      S.set("req", Json::integer(R.Request));
      Out.push(std::move(S));
    }
    return Out;
  }

private:
  using Clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(Clock::now() - Origin).count();
  }

  Clock::time_point Origin;
  std::vector<Record> Records;
  int Current = -1;
};

/// RAII span; a null tracer records nothing.
class Span {
public:
  Span(Tracer *T, const char *Name, int64_t Request = -1) : T(T) {
    if (T)
      Id = T->begin(Name, Request);
  }
  ~Span() { close(); }
  void close() {
    if (T && Id >= 0)
      T->end(Id);
    Id = -1;
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  int Id = -1;
};

} // namespace perfbench

#endif // MCNK_PERFBENCH_TRACE_H
