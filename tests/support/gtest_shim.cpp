// Runtime for the vendored GoogleTest shim: test registry, failure
// recording, the run loop and main().  See gtest/gtest.h in this directory
// for the API surface and when the shim is selected.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <exception>

namespace otf_gtest {

TestResult& current_result()
{
    static TestResult result;
    return result;
}

std::vector<std::string>& scoped_traces()
{
    static std::vector<std::string> traces;
    return traces;
}

std::vector<RegisteredTest>& registry()
{
    static std::vector<RegisteredTest> tests;
    return tests;
}

int register_test(const char* suite, const char* name,
                  std::function<void*()> make)
{
    registry().push_back({suite, name, std::move(make)});
    return 0;
}

namespace {

// Runs one test with gtest's sequencing: SetUp, then the body unless SetUp
// failed fatally or skipped, then TearDown regardless.
void run_one(const RegisteredTest& t)
{
    auto* test = static_cast<::testing::Test*>(t.make());
    try {
        test->SetUp();
        if (!current_result().fatal && !current_result().skipped) {
            test->TestBody();
        }
        test->TearDown();
    } catch (const std::exception& e) {
        ++current_result().failures;
        std::printf("  uncaught exception: %s\n", e.what());
    } catch (...) {
        ++current_result().failures;
        std::printf("  uncaught non-standard exception\n");
    }
    delete test;
}

} // namespace

int run_all_tests()
{
    const auto& tests = registry();
    std::printf("[==========] Running %zu tests (otf gtest shim).\n",
                tests.size());
    std::vector<std::string> failed;
    std::size_t skipped = 0;
    for (const auto& t : tests) {
        const std::string full = t.suite + "." + t.name;
        std::printf("[ RUN      ] %s\n", full.c_str());
        current_result() = TestResult{};
        const auto start = std::chrono::steady_clock::now();
        run_one(t);
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        if (current_result().failures > 0) {
            failed.push_back(full);
            std::printf("[  FAILED  ] %s (%lld ms)\n", full.c_str(),
                        static_cast<long long>(ms));
        } else if (current_result().skipped) {
            ++skipped;
            std::printf("[  SKIPPED ] %s (%lld ms)\n", full.c_str(),
                        static_cast<long long>(ms));
        } else {
            std::printf("[       OK ] %s (%lld ms)\n", full.c_str(),
                        static_cast<long long>(ms));
        }
    }
    std::printf("[==========] %zu tests ran.\n", tests.size());
    std::printf("[  PASSED  ] %zu tests.\n",
                tests.size() - failed.size() - skipped);
    if (skipped > 0) {
        std::printf("[  SKIPPED ] %zu tests.\n", skipped);
    }
    if (!failed.empty()) {
        std::printf("[  FAILED  ] %zu tests, listed below:\n", failed.size());
        for (const auto& name : failed) {
            std::printf("[  FAILED  ] %s\n", name.c_str());
        }
        return 1;
    }
    return 0;
}

} // namespace otf_gtest

namespace testing::internal {

void AssertHelper::operator=(const Message& message) const
{
    auto& result = ::otf_gtest::current_result();
    if (kind_ == FailKind::skip) {
        result.skipped = true;
        const std::string user = message.str();
        if (!user.empty()) {
            std::printf("  skipped: %s\n", user.c_str());
        }
        return;
    }
    ++result.failures;
    if (kind_ == FailKind::fatal) {
        result.fatal = true;
    }
    std::printf("%s:%d: Failure\n%s\n", file_, line_, summary_.c_str());
    const std::string user = message.str();
    if (!user.empty()) {
        std::printf("%s\n", user.c_str());
    }
    const auto& traces = ::otf_gtest::scoped_traces();
    if (!traces.empty()) {
        std::printf("Google Test trace:\n");
        for (auto it = traces.rbegin(); it != traces.rend(); ++it) {
            std::printf("%s\n", it->c_str());
        }
    }
}

} // namespace testing::internal

int main(int argc, char** argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    return ::otf_gtest::run_all_tests();
}
