/** @file Tests for the JSON document model and the stats exporter. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/json.hh"
#include "sim/stats_json.hh"

using namespace tsoper;

namespace tsoper
{
// Failure messages show the document, not the node's bytes.
void
PrintTo(const Json &j, std::ostream *os)
{
    *os << j.dump();
}
} // namespace tsoper

// --- Json value model -------------------------------------------------

TEST(Json, ScalarDumps)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
    EXPECT_EQ(Json(std::uint64_t{18446744073709551615ull}).dump(),
              "18446744073709551615");
    EXPECT_EQ(Json(0.5).dump(), "0.5");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(Json("a\"b\\c\n\t").dump(), "\"a\\\"b\\\\c\\n\\t\"");
    EXPECT_EQ(Json(std::string("\x01", 1)).dump(), "\"\\u0001\"");
}

TEST(Json, ObjectsKeepInsertionOrderAndReplaceInPlace)
{
    Json obj = Json::object();
    obj.set("z", Json(1)).set("a", Json(2)).set("z", Json(3));
    EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
    EXPECT_EQ(obj.size(), 2u);
    EXPECT_EQ((*obj.find("z")).asInt(), 3);
    EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, PrettyPrinting)
{
    Json obj = Json::object();
    obj.set("a", Json(1));
    Json arr = Json::array();
    arr.push(Json(2)).push(Json(3));
    obj.set("b", std::move(arr));
    EXPECT_EQ(obj.dump(2),
              "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    3\n  ]\n}");
}

TEST(Json, ParseScalars)
{
    Json v;
    ASSERT_TRUE(Json::parse("null", &v));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(Json::parse(" true ", &v));
    EXPECT_TRUE(v.asBool());
    ASSERT_TRUE(Json::parse("-12", &v));
    EXPECT_EQ(v.asInt(), -12);
    ASSERT_TRUE(Json::parse("18446744073709551615", &v));
    EXPECT_EQ(v.asUint(), 18446744073709551615ull);
    ASSERT_TRUE(Json::parse("2.5e3", &v));
    EXPECT_DOUBLE_EQ(v.asDouble(), 2500.0);
    ASSERT_TRUE(Json::parse("\"a\\u0041b\"", &v));
    EXPECT_EQ(v.asString(), "aAb");
}

TEST(Json, ParseNested)
{
    Json v;
    ASSERT_TRUE(Json::parse(
        "{\"xs\": [1, 2, {\"y\": null}], \"ok\": false}", &v));
    ASSERT_TRUE(v.isObject());
    const Json &xs = v["xs"];
    ASSERT_EQ(xs.size(), 3u);
    EXPECT_EQ(xs.at(1).asInt(), 2);
    EXPECT_TRUE(xs.at(2)["y"].isNull());
    EXPECT_FALSE(v["ok"].asBool());
}

TEST(Json, ParseErrors)
{
    Json v;
    std::string err;
    EXPECT_FALSE(Json::parse("", &v, &err));
    EXPECT_FALSE(Json::parse("{", &v, &err));
    EXPECT_FALSE(Json::parse("[1,]", &v, &err));
    EXPECT_FALSE(Json::parse("tru", &v, &err));
    EXPECT_FALSE(Json::parse("1 2", &v, &err));
    EXPECT_FALSE(Json::parse("\"abc", &v, &err));
    EXPECT_NE(err.find("offset"), std::string::npos);
}

TEST(Json, RoundTripEquality)
{
    Json doc = Json::object();
    doc.set("name", Json("round trip"))
        .set("count", Json(std::uint64_t{1} << 60))
        .set("frac", Json(0.1));
    Json arr = Json::array();
    arr.push(Json(-1)).push(Json(true)).push(Json());
    doc.set("mix", std::move(arr));

    Json back;
    ASSERT_TRUE(Json::parse(doc.dump(), &back));
    EXPECT_EQ(back, doc);
    EXPECT_EQ(back.dump(), doc.dump());

    // Pretty and compact forms parse to the same document.
    Json pretty;
    ASSERT_TRUE(Json::parse(doc.dump(2), &pretty));
    EXPECT_EQ(pretty, doc);
}

TEST(Json, DoubleFormattingIsShortestRoundTrip)
{
    // 0.1 must not serialize as 0.1000000000000000055511...
    EXPECT_EQ(Json(0.1).dump(), "0.1");
    // A value needing all 17 digits survives.
    const double tricky = 0.12345678901234567;
    Json back;
    ASSERT_TRUE(Json::parse(Json(tricky).dump(), &back));
    EXPECT_EQ(back.asDouble(), tricky);
}

TEST(Json, IntegersCompareExactly)
{
    // 2^60 and 2^60 + 1 are the same double, but different integers.
    const std::int64_t big = std::int64_t{1} << 60;
    const auto ubig = static_cast<std::uint64_t>(big);
    EXPECT_NE(Json(big), Json(ubig + 1));
    EXPECT_NE(Json(ubig + 1), Json(big));
    EXPECT_EQ(Json(big), Json(ubig));
    EXPECT_EQ(Json(std::uint64_t{3}), Json(3));
    EXPECT_NE(Json(-1), Json(std::uint64_t{18446744073709551615ull}));
    // Only a double compares through double.
    EXPECT_EQ(Json(2), Json(2.0));
    EXPECT_EQ(Json(static_cast<double>(big)), Json(ubig + 1));
}

TEST(Json, LargeUintRoundTrips)
{
    const std::uint64_t big = (std::uint64_t{1} << 53) + 1; // no double
    Json arr = Json::array();
    arr.push(Json(big)).push(Json(std::uint64_t{18446744073709551615ull}));
    EXPECT_EQ(arr.dump(), "[9007199254740993,18446744073709551615]");
    Json back;
    ASSERT_TRUE(Json::parse(arr.dump(), &back));
    EXPECT_EQ(back.at(0).asUint(), big);
    EXPECT_EQ(back, arr);
    EXPECT_EQ(back.dump(), arr.dump());
}

TEST(Json, CopiesAreDeep)
{
    Json arr = Json::array();
    arr.push(Json(1)).push(Json::object().set("k", Json("v")));
    Json obj = Json::object();
    obj.set("xs", arr).set("s", Json("str"));

    const Json arrCopy = arr;
    Json objCopy;
    objCopy = obj;
    EXPECT_EQ(arrCopy, arr);
    EXPECT_EQ(objCopy, obj);

    arr.push(Json(3));
    obj.set("s", Json("changed")).set("extra", Json::array());
    EXPECT_EQ(arrCopy.dump(), "[1,{\"k\":\"v\"}]");
    EXPECT_EQ(objCopy.dump(), "{\"xs\":[1,{\"k\":\"v\"}],\"s\":\"str\"}");
    EXPECT_NE(arrCopy, arr);
    EXPECT_NE(objCopy, obj);
}

TEST(Json, MovedFromIsNullAndAssignable)
{
    Json arr = Json::array();
    arr.push(Json(1));
    Json str("text");
    Json obj = Json::object();
    obj.set("a", Json(2));

    Json dst = std::move(arr);
    EXPECT_EQ(dst.dump(), "[1]");
    dst = std::move(str);
    EXPECT_EQ(dst.asString(), "text");
    dst = std::move(obj);
    EXPECT_EQ(dst.dump(), "{\"a\":2}");
    for (const Json *moved : {&arr, &str, &obj}) {
        EXPECT_TRUE(moved->isNull());
        EXPECT_EQ(moved->size(), 0u);
    }

    arr = Json::array();
    arr.push(Json(4));
    str = Json("again");
    obj = Json::object();
    obj.set("b", Json(true));
    EXPECT_EQ(arr.dump(), "[4]");
    EXPECT_EQ(str.asString(), "again");
    EXPECT_EQ(obj.dump(), "{\"b\":true}");
}

TEST(Json, SelfAssignmentKeepsTheValue)
{
    Json doc = Json::object();
    doc.set("xs", Json::array().push(Json(1)).push(Json(2.5)))
        .set("s", Json("str"));
    const std::string text = doc.dump();
    Json &alias = doc;
    doc = alias;
    EXPECT_EQ(doc.dump(), text);
    doc = std::move(alias);
    EXPECT_EQ(doc.dump(), text);
}

// --- Stats exporter ---------------------------------------------------

namespace
{

StatsRegistry
makeRegistry()
{
    StatsRegistry reg;
    reg.counter("sys.cycles").inc(123456789);
    reg.counter("slc.links").inc(17);
    reg.histogram("ag.size").add(1, 5);
    reg.histogram("ag.size").add(3, 2);
    reg.histogram("ag.size").add(80);
    reg.histogram("list.len").add(2, 9);
    reg.timeSeries("sfr.size").sample(100, 1.5);
    reg.timeSeries("sfr.size").sample(250, 4.0);
    return reg;
}

} // namespace

TEST(StatsJson, ExportSchema)
{
    const StatsRegistry reg = makeRegistry();
    const Json doc = statsToJson(reg);
    EXPECT_EQ(doc["counters"]["sys.cycles"].asUint(), 123456789u);
    const Json &ag = doc["histograms"]["ag.size"];
    EXPECT_EQ(ag["samples"].asUint(), 8u);
    EXPECT_EQ(ag["min"].asUint(), 1u);
    EXPECT_EQ(ag["max"].asUint(), 80u);
    ASSERT_EQ(ag["buckets"].size(), 3u);
    EXPECT_EQ(ag["buckets"].at(0).at(0).asUint(), 1u);
    EXPECT_EQ(ag["buckets"].at(0).at(1).asUint(), 5u);
    const Json &series = doc["series"]["sfr.size"];
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series.at(1).at(0).asUint(), 250u);
    EXPECT_DOUBLE_EQ(series.at(1).at(1).asDouble(), 4.0);
}

TEST(StatsJson, RoundTripIsByteIdentical)
{
    const StatsRegistry reg = makeRegistry();
    const std::string text = statsJsonText(reg);

    Json doc;
    ASSERT_TRUE(Json::parse(text, &doc));
    StatsRegistry back;
    std::string err;
    ASSERT_TRUE(statsFromJson(doc, &back, &err)) << err;

    // Identical re-export and identical text dump.
    EXPECT_EQ(statsJsonText(back), text);
    std::ostringstream a, b;
    reg.dump(a);
    back.dump(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(StatsJson, ImportRejectsMalformedDocuments)
{
    StatsRegistry reg;
    std::string err;

    Json notObject = Json::array();
    EXPECT_FALSE(statsFromJson(notObject, &reg, &err));

    Json badCounter = Json::object();
    badCounter.set("counters",
                   Json::object().set("x", Json("not a number")));
    EXPECT_FALSE(statsFromJson(badCounter, &reg, &err));
    EXPECT_NE(err.find("x"), std::string::npos);

    // Sample-count mismatch (truncated bucket list) is caught.
    Json mismatch;
    ASSERT_TRUE(Json::parse(
        "{\"histograms\": {\"h\": {\"samples\": 5, "
        "\"buckets\": [[1, 2]]}}}",
        &mismatch));
    EXPECT_FALSE(statsFromJson(mismatch, &reg, &err));
    EXPECT_NE(err.find("mismatch"), std::string::npos);
}

TEST(StatsJson, EmptyRegistry)
{
    StatsRegistry reg;
    const Json doc = statsToJson(reg);
    EXPECT_EQ(doc.dump(),
              "{\"counters\":{},\"histograms\":{},\"series\":{}}");
    StatsRegistry back;
    EXPECT_TRUE(statsFromJson(doc, &back, nullptr));
}
