// LiveStreamSink tests — the gsight-live/v1 NDJSON introspection surface
// behind `gsight serve-bench --live` and `gsight tail`, read back through
// Json::parse. Determinism matters most here: twin emissions must be
// byte-identical, which is what the fleet twin-run gate compares.
#include "obs/live_stream.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gsight::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(LiveStream, HelloIsFirstAndSeqIsSequential) {
  std::ostringstream os;
  LiveStreamSink sink(os);
  sink.hello("test", {{"replicas", "4"}, {"router", "hash"}});
  sink.mark(0.5, "fleet.drain", {{"replica", "1"}});
  sink.mark(0.75, "fleet.readd");

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(sink.records(), 3u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto rec = Json::parse(lines[i]);
    ASSERT_TRUE(rec.has_value()) << lines[i];
    ASSERT_NE(rec->find("seq"), nullptr);
    EXPECT_EQ(rec->find("seq")->number(), static_cast<double>(i));
  }
  const auto hello = Json::parse(lines[0]);
  EXPECT_EQ(hello->find("schema")->string(), kLiveSchema);
  EXPECT_EQ(hello->find("type")->string(), "hello");
  EXPECT_EQ(hello->find("source")->string(), "test");
  EXPECT_EQ(hello->find("meta")->find("router")->string(), "hash");
}

TEST(LiveStream, MetricDeltasEmitOnlyChanges) {
  std::ostringstream os;
  LiveStreamSink sink(os);
  sink.hello("test");

  MetricsRegistry registry;
  registry.counter("requests").inc(3);
  registry.gauge("depth").set(7);
  sink.metric_deltas(1.0, registry);  // first emission: both instances

  registry.counter("requests").inc(2);
  sink.metric_deltas(2.0, registry);  // only the counter changed

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 4u) << "hello + 2 first-emission + 1 delta";
  // samples() orders counters before gauges, so the counter leads.
  const auto first = Json::parse(lines[1]);
  EXPECT_EQ(first->find("type")->string(), "metric");
  EXPECT_EQ(first->find("name")->string(), "requests");
  EXPECT_EQ(first->find("kind")->string(), "counter");
  EXPECT_EQ(first->find("value")->number(), 3.0);
  EXPECT_EQ(first->find("delta")->number(), 3.0);
  const auto second = Json::parse(lines[2]);
  EXPECT_EQ(second->find("name")->string(), "depth");
  EXPECT_EQ(second->find("kind")->string(), "gauge");
  const auto delta = Json::parse(lines[3]);
  EXPECT_EQ(delta->find("name")->string(), "requests");
  EXPECT_EQ(delta->find("ts_s")->number(), 2.0);
  EXPECT_EQ(delta->find("value")->number(), 5.0);
  EXPECT_EQ(delta->find("delta")->number(), 2.0);
}

TEST(LiveStream, HistogramDeltasCarrySum) {
  std::ostringstream os;
  LiveStreamSink sink(os);
  sink.hello("test");
  MetricsRegistry registry;
  registry.histogram("latency").observe(2.0);
  registry.histogram("latency").observe(4.0);
  sink.metric_deltas(1.0, registry);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);
  const auto rec = Json::parse(lines[1]);
  EXPECT_EQ(rec->find("kind")->string(), "histogram");
  EXPECT_EQ(rec->find("value")->number(), 2.0);  // count
  EXPECT_EQ(rec->find("sum")->number(), 6.0);
}

TEST(LiveStream, TracerEventsStreamAsSpans) {
  std::ostringstream os;
  LiveStreamSink sink(os);
  sink.hello("test");
  Tracer tracer(&sink);
  tracer.complete(1.0, 0.25, "poll", "serve", 1, 2, {{"replica", "0"}});
  tracer.instant(1.5, "drain", "serve", 1, 2);

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 3u);
  const auto span = Json::parse(lines[1]);
  EXPECT_EQ(span->find("type")->string(), "span");
  EXPECT_EQ(span->find("ph")->string(), "X");
  EXPECT_EQ(span->find("name")->string(), "poll");
  EXPECT_EQ(span->find("dur_s")->number(), 0.25);
  EXPECT_EQ(span->find("args")->find("replica")->string(), "0");
  const auto instant = Json::parse(lines[2]);
  EXPECT_EQ(instant->find("ph")->string(), "i");
  EXPECT_EQ(instant->find("dur_s"), nullptr);
}

TEST(LiveStream, TwinEmissionsAreByteIdentical) {
  std::string streams[2];
  for (auto& out : streams) {
    std::ostringstream os;
    LiveStreamSink sink(os);
    sink.hello("twin", {{"seed", "99"}});
    MetricsRegistry registry;
    for (int step = 0; step < 5; ++step) {
      registry.counter("fleet.submitted").inc(3);
      registry.gauge("fleet.watermark").set(step);
      sink.metric_deltas(0.1 * step, registry);
      sink.mark(0.1 * step + 0.05, "fleet.publish",
                {{"version", std::to_string(step)}});
    }
    out = os.str();
  }
  EXPECT_EQ(streams[0], streams[1]);
}

TEST(LiveStream, ParseRoundTripsEscapesAndRejectsGarbage) {
  std::ostringstream os;
  LiveStreamSink sink(os);
  sink.hello("tab\there \"quoted\"");
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 1u);
  const auto rec = Json::parse(lines[0]);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->find("source")->string(), "tab\there \"quoted\"");

  std::string error;
  EXPECT_FALSE(Json::parse("", &error).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing", &error).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":}", &error).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":nope}", &error).has_value());
  EXPECT_FALSE(error.empty());

  const auto nested = Json::parse(
      R"({"a":[1,2,{"b":true,"c":null}],"d":-1.5e3})");
  ASSERT_TRUE(nested.has_value());
  ASSERT_NE(nested->find("a"), nullptr);
  EXPECT_EQ(nested->find("a")->size(), 3u);
  EXPECT_TRUE(nested->find("a")->items()[2].find("b")->boolean());
  EXPECT_EQ(nested->find("d")->number(), -1500.0);
}

TEST(LiveStream, RegistrySamplesAreDeterministicallyOrdered) {
  MetricsRegistry registry;
  registry.gauge("z").set(1);
  registry.counter("b").inc(1);
  registry.counter("a", {{"replica", "1"}}).inc(1);
  registry.counter("a", {{"replica", "0"}}).inc(1);
  registry.histogram("h").observe(1.0);
  const auto samples = registry.samples();
  ASSERT_EQ(samples.size(), 5u);
  // Counters (families by name, instances by label) then gauges then
  // histograms — the order metric_deltas emits in.
  EXPECT_EQ(samples[0].name, "a");
  EXPECT_EQ(samples[1].name, "a");
  EXPECT_LT(samples[0].labels, samples[1].labels);
  EXPECT_EQ(samples[2].name, "b");
  EXPECT_EQ(samples[3].name, "z");
  EXPECT_EQ(samples[3].kind, MetricSample::Kind::kGauge);
  EXPECT_EQ(samples[4].kind, MetricSample::Kind::kHistogram);
}

}  // namespace
}  // namespace gsight::obs
