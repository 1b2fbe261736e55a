// Seeded mutation fuzz of the scenario-spec parser. Starts from canonical
// spec texts and applies byte flips, dropped and duplicated lines,
// truncations, and truncated or misspelled keys. Whatever the mutant,
// parse() must not crash; an accepted spec must pass valid() and
// round-trip through to_text() unchanged; a rejected one must carry an
// error that names its line, or (for whole-spec checks that span lines)
// exactly the message valid() gives for the spec the lines describe.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/builtin.h"
#include "util/parse.h"

namespace seg {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

std::vector<std::string> key_names() {
  std::vector<std::string> names;
  for (const SpecKeyInfo& key : spec_keys()) names.push_back(key.name);
  return names;
}

// Canonical texts of the builtins plus specs that set every key that
// enters the text only conditionally.
std::vector<std::string> corpus() {
  std::vector<std::string> texts;
  for (const std::string& name :
       {"phase_diagram", "region_size", "graph_topologies"}) {
    BuiltinCampaign campaign;
    EXPECT_TRUE(make_builtin_campaign(name, {}, &campaign)) << name;
    texts.push_back(campaign.spec.to_text());
  }
  ScenarioSpec graph;
  graph.topology = {TopologyFamily::kLollipop, TopologyFamily::kEdgeList};
  graph.graph_clique = 10;
  graph.graph_path = 7;
  graph.graph_degree = 4;
  graph.graph_beta = 0.25;
  graph.graph_seed = 9;
  graph.graph_nodes = 100;
  graph.graph_file = "edges.txt";
  graph.shards = 2;
  graph.streaming_sample_every = 50;
  graph.metrics = {"flips", "majority", "terminated"};
  graph.stop.rule = StopRule::kPassRate;
  graph.stop.max_replicas = 64;
  graph.stop.metric = "terminated";
  texts.push_back(graph.to_text());
  ScenarioSpec bernstein;
  bernstein.stop.rule = StopRule::kBernstein;
  bernstein.stop.range_hi = 4096.0;
  bernstein.metrics = {"mean_mono_region", "streaming"};
  texts.push_back(bernstein.to_text());
  return texts;
}

// The spec the lines of `text` describe, built key by key with set() the
// way a spec file is read, skipping nothing: only called on texts whose
// every line parse() accepted.
ScenarioSpec apply_lines(const std::string& text) {
  ScenarioSpec spec;
  for (std::string line : split_lines(text)) {
    const auto trim = [](const std::string& s) {
      const std::size_t b = s.find_first_not_of(" \t\r\n");
      if (b == std::string::npos) return std::string();
      return s.substr(b, s.find_last_not_of(" \t\r\n") - b + 1);
    };
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    EXPECT_NE(eq, std::string::npos) << line;
    std::string why;
    EXPECT_TRUE(spec.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)),
                         &why))
        << why;
  }
  return spec;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  std::string byte_flip(std::string text) {
    if (text.empty()) return text;
    const std::size_t flips = 1 + below(3);
    for (std::size_t i = 0; i < flips; ++i) {
      text[below(text.size())] = static_cast<char>(below(256));
    }
    return text;
  }

  std::string drop_line(const std::string& text) {
    std::vector<std::string> lines = split_lines(text);
    if (!lines.empty()) lines.erase(lines.begin() + below(lines.size()));
    return join_lines(lines);
  }

  std::string duplicate_line(const std::string& text) {
    std::vector<std::string> lines = split_lines(text);
    if (lines.empty()) return text;
    const std::string copy = lines[below(lines.size())];
    lines.insert(lines.begin() + below(lines.size() + 1), copy);
    return join_lines(lines);
  }

  std::string truncate(const std::string& text) {
    return text.substr(0, below(text.size() + 1));
  }

  // Replaces the key of one line by a proper prefix or a one-edit
  // misspelling; reports the line (1-based) and the new key.
  std::string mangle_key(const std::string& text, std::size_t* line_no,
                         std::string* key) {
    std::vector<std::string> lines = split_lines(text);
    const std::size_t i = below(lines.size());
    const std::size_t eq = lines[i].find(" = ");
    std::string k = lines[i].substr(0, eq);
    switch (below(3)) {
      case 0:  // truncated
        k = k.substr(0, 1 + below(k.size() - 1));
        break;
      case 1:  // adjacent transposition
        if (k.size() > 1) {
          const std::size_t j = below(k.size() - 1);
          std::swap(k[j], k[j + 1]);
        }
        break;
      default:  // substituted letter
        k[below(k.size())] = static_cast<char>('a' + below(26));
        break;
    }
    lines[i] = k + lines[i].substr(eq);
    *line_no = i + 1;
    *key = k;
    return join_lines(lines);
  }

 private:
  std::mt19937_64 rng_;
};

void check_mutant(const std::string& text) {
  ScenarioSpec spec;
  std::string error;
  if (ScenarioSpec::parse(text, &spec, &error)) {
    std::string why;
    EXPECT_TRUE(spec.valid(&why)) << why << "\n" << text;
    const std::string canonical = spec.to_text();
    ScenarioSpec back;
    ASSERT_TRUE(ScenarioSpec::parse(canonical, &back, &why))
        << why << "\n" << canonical;
    EXPECT_EQ(back.to_text(), canonical);
    EXPECT_EQ(back.hash(), spec.hash());
    return;
  }
  ASSERT_FALSE(error.empty()) << text;
  if (error.rfind("line ", 0) == 0) {
    const std::size_t n = std::stoul(error.substr(5));
    EXPECT_GE(n, 1u) << error;
    EXPECT_LE(n, split_lines(text).size()) << error;
    EXPECT_NE(error.find(": "), std::string::npos) << error;
    return;
  }
  // Not tied to a line: every line parsed, and the spec they describe
  // fails the whole-spec checks with exactly this message.
  std::string why;
  EXPECT_FALSE(apply_lines(text).valid(&why)) << error << "\n" << text;
  EXPECT_EQ(why, error) << text;
}

TEST(SpecFuzz, CorpusIsCanonical) {
  for (const std::string& text : corpus()) {
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(ScenarioSpec::parse(text, &spec, &error)) << error;
    EXPECT_EQ(spec.to_text(), text);
  }
}

TEST(SpecFuzz, MutantsParseOrFailWithALine) {
  Mutator mutate(20240611);
  const std::vector<std::string> texts = corpus();
  for (int round = 0; round < 4000; ++round) {
    const std::string& seed = texts[mutate.below(texts.size())];
    std::string text;
    switch (mutate.below(5)) {
      case 0: text = mutate.byte_flip(seed); break;
      case 1: text = mutate.drop_line(seed); break;
      case 2: text = mutate.duplicate_line(seed); break;
      case 3: text = mutate.truncate(seed); break;
      default: text = mutate.byte_flip(mutate.duplicate_line(seed)); break;
    }
    SCOPED_TRACE("round " + std::to_string(round));
    check_mutant(text);
  }
}

TEST(SpecFuzz, MangledKeysNameTheNearestKey) {
  Mutator mutate(7);
  const std::vector<std::string> texts = corpus();
  const std::vector<std::string> names = key_names();
  for (int round = 0; round < 1000; ++round) {
    std::size_t line_no = 0;
    std::string key;
    const std::string text =
        mutate.mangle_key(texts[mutate.below(texts.size())], &line_no, &key);
    SCOPED_TRACE("round " + std::to_string(round) + ": key '" + key + "'");
    check_mutant(text);
    if (std::find(names.begin(), names.end(), key) != names.end()) continue;
    ScenarioSpec spec;
    std::string error;
    ASSERT_FALSE(ScenarioSpec::parse(text, &spec, &error));
    EXPECT_EQ(error, "line " + std::to_string(line_no) + ": unknown key '" +
                         key + "' (did you mean '" +
                         nearest_name(key, names) + "'?)");
  }
}

TEST(SpecFuzz, UnknownKeyNamesNearest) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(spec.set("shrads", "4", &error));
  EXPECT_EQ(error, "unknown key 'shrads' (did you mean 'shards'?)");
  EXPECT_FALSE(ScenarioSpec::parse("n = 32\nshrads = 4\n", &spec, &error));
  EXPECT_EQ(error, "line 2: unknown key 'shrads' (did you mean 'shards'?)");
  EXPECT_FALSE(ScenarioSpec::parse("n = 32\nstop_rul = bernstein\n", &spec,
                                   &error));
  EXPECT_EQ(error,
            "line 2: unknown key 'stop_rul' (did you mean 'stop_rule'?)");
}

TEST(SpecFuzz, SetLeavesSpecUnchangedOnBadValue) {
  ScenarioSpec spec;
  const std::string before = spec.to_text();
  std::string error;
  EXPECT_FALSE(spec.set("n", "32,x", &error));
  EXPECT_NE(error.find("'x'"), std::string::npos) << error;
  EXPECT_FALSE(spec.set("stop_range", "0,1,2", &error));
  EXPECT_FALSE(spec.set("replicas", "0", &error));
  EXPECT_FALSE(spec.set("shape", "hexagon", &error));
  EXPECT_NE(error.find("hexagon"), std::string::npos) << error;
  EXPECT_EQ(spec.to_text(), before);
  ASSERT_TRUE(spec.set("shards", "2", &error)) << error;
  EXPECT_NE(spec.to_text().find("shards = 2\n"), std::string::npos);
}

}  // namespace
}  // namespace seg
