// Decision goldens for Fig 5's cells: ARC (and its slow and fixed-p
// variants), LIRS, LeCaR, CACHEUS, LHD and the QD wrapper over each of the
// five Fig-5 bases, replayed over the first trace of every Table-1 family
// at replay-grid scale (12,500 requests) and at 0.1% and 10% of its
// objects. Each case pins an FNV-1a hash of the hit/miss sequence and the
// final Stats() flow and occupancy counts, so any change to a decision, an
// event count or a region's size fails here, whichever lane runs it.
//
// Both lanes are held to the one table: MakePolicy on the original ids and
// MakeDensePolicy on dense ids. A failing case prints its actual row in
// table syntax. The table was generated from the std::list / std::set /
// std::unordered_map implementations these policies had before they moved
// to intrusive lists under one index, so it pins them to the original
// decisions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/sim/simulator.h"
#include "src/trace/dense_trace.h"
#include "src/trace/registry.h"
#include "src/trace/trace.h"

namespace qdlp {
namespace {

// QDLP_CHECK_INVARIANTS (on in the debug and sanitizer presets) re-runs
// CheckInvariants() after every access, O(resident state) per request, so
// those builds replay only a prefix and compare its hash.
#ifdef QDLP_CHECK_INVARIANTS
constexpr bool kPrefixOnly = true;
#else
constexpr bool kPrefixOnly = false;
#endif
constexpr size_t kPrefixRequests = 500;
constexpr double kGridScale = 0.015625;  // 12,500 requests per trace

struct Golden {
  const char* family;
  int per_mille;  // cache size as a fraction of the trace's objects
  const char* policy;
  uint64_t prefix_hash;  // hit/miss hash over the first kPrefixRequests
  uint64_t hash;         // hit/miss hash over the whole trace
  uint64_t hits;
  uint64_t inserts;
  uint64_t evictions;
  uint64_t promotions;
  uint64_t demotions;
  uint64_t ghost_hits;
  uint64_t probation_size;
  uint64_t main_size;
  uint64_t ghost_size;
};

// clang-format off
const Golden kGoldens[] = {
    {"msr", 1, "arc", 0x93582d49130c2509ULL, 0xe2eb0b90b365debaULL, 129, 12371, 12361, 129, 8308, 83, 8, 2, 10},
    {"msr", 100, "arc", 0xdeb471e62014ab8fULL, 0x3e48b786e0b2d4a4ULL, 2381, 10119, 9172, 2381, 9172, 293, 167, 780, 947},
    {"fiu", 1, "arc", 0xea99e1f91c44003eULL, 0x1a933fe760d61371ULL, 236, 12264, 12254, 236, 12246, 130, 5, 5, 10},
    {"fiu", 100, "arc", 0xfc4f9c11d83b8a6aULL, 0x847a9559a630369fULL, 942, 11558, 10648, 942, 10648, 0, 564, 346, 345},
    {"cloudphysics", 1, "arc", 0x5015b28093daf0bcULL, 0xe06f1ee0204cf8f8ULL, 115, 12385, 12375, 115, 11526, 54, 8, 2, 10},
    {"cloudphysics", 100, "arc", 0x4d0f350681c80920ULL, 0xb00eea70cb13e3a7ULL, 1968, 10532, 9634, 1968, 9634, 149, 150, 748, 898},
    {"major_cdn", 1, "arc", 0xc1c92c6b929e763fULL, 0xe6bdeb0953aca267ULL, 326, 12174, 12164, 326, 11730, 232, 8, 2, 10},
    {"major_cdn", 100, "arc", 0xed084bc6244c5de4ULL, 0x67fdb2d66ee8dd47ULL, 3806, 8694, 8077, 3806, 8077, 821, 14, 603, 617},
    {"tencent_photo", 1, "arc", 0xe9e78fb1fec1d994ULL, 0x04bd7ccfd67dc12aULL, 453, 12047, 12037, 453, 11928, 264, 1, 9, 10},
    {"tencent_photo", 100, "arc", 0x1494ce2bc9b3e769ULL, 0xe487aae5283ca220ULL, 3967, 8533, 7905, 3967, 7905, 710, 17, 611, 628},
    {"wiki_cdn", 1, "arc", 0x5e7c356fb689a514ULL, 0xdbf33bc25a8aa8a6ULL, 1121, 11379, 11369, 1121, 11347, 515, 6, 4, 10},
    {"wiki_cdn", 100, "arc", 0xa682e80e845c86c1ULL, 0xd9192c593b1924e7ULL, 5438, 7062, 6583, 5438, 6583, 759, 11, 468, 479},
    {"tencent_cbs", 1, "arc", 0xc5cd02565b1ab56eULL, 0x3f452fe5a4b97a02ULL, 533, 11967, 11957, 533, 11634, 255, 5, 5, 10},
    {"tencent_cbs", 100, "arc", 0x9dab32f1ff1111e0ULL, 0xaec43959893e382fULL, 3086, 9414, 8543, 3086, 8543, 286, 61, 810, 871},
    {"alibaba", 1, "arc", 0x7b5a288287b2c3e7ULL, 0xe26299071b21938fULL, 42, 12458, 12448, 42, 8160, 14, 10, 0, 10},
    {"alibaba", 100, "arc", 0xc52ec5251d42fd1eULL, 0xb77d7f0da8519f6aULL, 2613, 9887, 8995, 2613, 8995, 205, 201, 691, 892},
    {"twitter", 1, "arc", 0xe0ab6b327862f79dULL, 0xdae9f780bb6cfc2fULL, 3464, 9036, 9026, 3464, 9026, 709, 2, 8, 10},
    {"twitter", 100, "arc", 0xf4975e3d472787e6ULL, 0x95ed08fc6838e34fULL, 8018, 4482, 4234, 8018, 4234, 575, 18, 230, 248},
    {"social_network", 1, "arc", 0x46c06833452fe8c3ULL, 0x4ed3f0d6c546eb76ULL, 5217, 7283, 7273, 5217, 7273, 1436, 2, 8, 10},
    {"social_network", 100, "arc", 0x8492fd9792da9002ULL, 0x3c62d3c138635ba4ULL, 9757, 2743, 2582, 9757, 2582, 409, 5, 156, 161},
    {"msr", 1, "arc-slow", 0x922b83b18ced4dd8ULL, 0x8fd83bb8eaf9bd3bULL, 130, 12370, 12360, 130, 12335, 82, 7, 3, 10},
    {"msr", 100, "arc-slow", 0xdeb471e62014ab8fULL, 0xda8bfdf1199f30b6ULL, 2317, 10183, 9236, 2317, 9236, 357, 69, 878, 947},
    {"fiu", 1, "arc-slow", 0x8af073764ed96bf9ULL, 0x61d97f071cb24d0fULL, 240, 12260, 12250, 240, 12250, 126, 5, 5, 10},
    {"fiu", 100, "arc-slow", 0xfc4f9c11d83b8a6aULL, 0x847a9559a630369fULL, 942, 11558, 10648, 942, 10648, 0, 564, 346, 345},
    {"cloudphysics", 1, "arc-slow", 0x21beba9e5c26559aULL, 0x7c384bfaa542c02eULL, 115, 12385, 12375, 115, 12350, 54, 8, 2, 10},
    {"cloudphysics", 100, "arc-slow", 0x4d0f350681c80920ULL, 0x614d2b025af9a437ULL, 1934, 10566, 9668, 1934, 9668, 183, 46, 852, 898},
    {"major_cdn", 1, "arc-slow", 0xc1c92c6b929e763fULL, 0x0c88a25234ebc59cULL, 335, 12165, 12155, 335, 12014, 223, 6, 4, 10},
    {"major_cdn", 100, "arc-slow", 0xed084bc6244c5de4ULL, 0xb74cc15fcf952509ULL, 3764, 8736, 8119, 3764, 8119, 863, 17, 600, 617},
    {"tencent_photo", 1, "arc-slow", 0xe9e78fb1fec1d994ULL, 0xdb7dae4fe7724118ULL, 471, 12029, 12019, 471, 11946, 246, 1, 9, 10},
    {"tencent_photo", 100, "arc-slow", 0x1494ce2bc9b3e769ULL, 0x8c92e14064b84612ULL, 3919, 8581, 7953, 3919, 7953, 758, 5, 623, 628},
    {"wiki_cdn", 1, "arc-slow", 0x79aa9ab05b495720ULL, 0x5daa216388b5de01ULL, 1112, 11388, 11378, 1112, 11378, 524, 3, 7, 10},
    {"wiki_cdn", 100, "arc-slow", 0xa682e80e845c86c1ULL, 0xa3e6b2b1af604e1cULL, 5371, 7129, 6650, 5371, 6650, 826, 4, 475, 479},
    {"tencent_cbs", 1, "arc-slow", 0xc5cd02565b1ab56eULL, 0x643c5a4c19523490ULL, 541, 11959, 11949, 541, 11688, 247, 6, 4, 10},
    {"tencent_cbs", 100, "arc-slow", 0x9dab32f1ff1111e0ULL, 0xa5166121088b4cc4ULL, 3005, 9495, 8624, 3005, 8624, 367, 45, 826, 871},
    {"alibaba", 1, "arc-slow", 0x7b5a288287b2c3e7ULL, 0x03661f45fe581478ULL, 29, 12471, 12461, 29, 12385, 27, 6, 4, 10},
    {"alibaba", 100, "arc-slow", 0xc52ec5251d42fd1eULL, 0x483a80eb8acc3e39ULL, 2542, 9958, 9066, 2542, 9066, 276, 70, 822, 892},
    {"twitter", 1, "arc-slow", 0x031cb1ec392a2d5dULL, 0x02f28224ae8c1ed0ULL, 3571, 8929, 8919, 3571, 8919, 602, 1, 9, 10},
    {"twitter", 100, "arc-slow", 0xf4975e3d472787e6ULL, 0x3f174e51883bc967ULL, 7958, 4542, 4294, 7958, 4294, 635, 11, 237, 248},
    {"social_network", 1, "arc-slow", 0xe09b8cbe7bf2cd98ULL, 0xb0c9c0d3f1b7afe6ULL, 5361, 7139, 7129, 5361, 7129, 1292, 2, 8, 10},
    {"social_network", 100, "arc-slow", 0x8492fd9792da9002ULL, 0x2f9ea2e1999995fdULL, 9666, 2834, 2673, 9666, 2673, 500, 3, 158, 161},
    {"msr", 1, "arc-fixed", 0x507a0fe0a264e63eULL, 0x67e4ee578d8ebc66ULL, 127, 12373, 12363, 127, 12338, 85, 2, 8, 10},
    {"msr", 100, "arc-fixed", 0xdeb471e62014ab8fULL, 0x7a28901e9e02ae11ULL, 2378, 10122, 9175, 2378, 9175, 296, 95, 852, 947},
    {"fiu", 1, "arc-fixed", 0x38a2b7d849e2d95dULL, 0x16b64517893cf175ULL, 234, 12266, 12256, 234, 12256, 132, 2, 8, 10},
    {"fiu", 100, "arc-fixed", 0xfc4f9c11d83b8a6aULL, 0x847a9559a630369fULL, 942, 11558, 10648, 942, 10648, 0, 564, 346, 345},
    {"cloudphysics", 1, "arc-fixed", 0x21beba9e5c26559aULL, 0xb0c01c7055a97404ULL, 89, 12411, 12401, 89, 12376, 80, 2, 8, 10},
    {"cloudphysics", 100, "arc-fixed", 0x4d0f350681c80920ULL, 0x32b07e2d2aee6559ULL, 1962, 10538, 9640, 1962, 9640, 155, 90, 808, 898},
    {"major_cdn", 1, "arc-fixed", 0xc1c92c6b929e763fULL, 0x52a7f310f23600c3ULL, 342, 12158, 12148, 342, 12007, 216, 2, 8, 10},
    {"major_cdn", 100, "arc-fixed", 0xed084bc6244c5de4ULL, 0x9b23aaddf399e4f1ULL, 3856, 8644, 8027, 3856, 8027, 771, 62, 555, 617},
    {"tencent_photo", 1, "arc-fixed", 0xe9e78fb1fec1d994ULL, 0x1c1b1df0ac8fb9e6ULL, 477, 12023, 12013, 477, 11940, 240, 2, 8, 10},
    {"tencent_photo", 100, "arc-fixed", 0x1494ce2bc9b3e769ULL, 0x4c7d35a1f1ccaea9ULL, 4060, 8440, 7812, 4060, 7812, 617, 63, 565, 628},
    {"wiki_cdn", 1, "arc-fixed", 0x6adc0ac73fbc207eULL, 0x25bcdf1ee96273b7ULL, 1116, 11384, 11374, 1116, 11374, 520, 2, 8, 10},
    {"wiki_cdn", 100, "arc-fixed", 0xa682e80e845c86c1ULL, 0x4b6499f6daaa9f65ULL, 5542, 6958, 6479, 5542, 6479, 655, 48, 431, 479},
    {"tencent_cbs", 1, "arc-fixed", 0xc5cd02565b1ab56eULL, 0xa3abfba19fc4bd21ULL, 476, 12024, 12014, 476, 12008, 312, 2, 8, 10},
    {"tencent_cbs", 100, "arc-fixed", 0x9dab32f1ff1111e0ULL, 0x403614fd62d1787bULL, 3100, 9400, 8529, 3100, 8529, 272, 88, 783, 871},
    {"alibaba", 1, "arc-fixed", 0x7b5a288287b2c3e7ULL, 0x6e85a0d49629fb84ULL, 27, 12473, 12463, 27, 12387, 29, 2, 8, 10},
    {"alibaba", 100, "arc-fixed", 0xc52ec5251d42fd1eULL, 0x906402d46feec551ULL, 2626, 9874, 8982, 2626, 8982, 192, 90, 802, 892},
    {"twitter", 1, "arc-fixed", 0xc5d829849f8f7a35ULL, 0xe0d22068a3e3ac8eULL, 3547, 8953, 8943, 3547, 8943, 626, 2, 8, 10},
    {"twitter", 100, "arc-fixed", 0xf4975e3d472787e6ULL, 0x1891ef9a7034cae1ULL, 8090, 4410, 4162, 8090, 4162, 503, 25, 223, 248},
    {"social_network", 1, "arc-fixed", 0xaec53e8f7b4c357cULL, 0x757acaad4f67efb7ULL, 5346, 7154, 7144, 5346, 7144, 1307, 2, 8, 10},
    {"social_network", 100, "arc-fixed", 0x8492fd9792da9002ULL, 0xec46e574c456f057ULL, 9856, 2644, 2483, 9856, 2483, 310, 17, 144, 161},
    {"msr", 1, "lirs", 0xed06c2ee4e88d12dULL, 0x86d27bb3e0651e25ULL, 124, 12376, 12366, 16, 213, 197, 1, 9, 30},
    {"msr", 100, "lirs", 0xdeb471e62014ab8fULL, 0x7a8b7a7964216f34ULL, 1895, 10605, 9658, 73, 986, 913, 9, 938, 2841},
    {"fiu", 1, "lirs", 0xbd20aa1203307263ULL, 0xf13bfed3c4131b9fULL, 222, 12278, 12268, 27, 246, 219, 1, 9, 30},
    {"fiu", 100, "lirs", 0xfc4f9c11d83b8a6aULL, 0xa483a5b79554eb34ULL, 1369, 11131, 10221, 116, 528, 412, 9, 901, 2729},
    {"cloudphysics", 1, "lirs", 0x3e61b1d9f025f688ULL, 0x949403ca25669279ULL, 84, 12416, 12406, 18, 212, 194, 1, 9, 30},
    {"cloudphysics", 100, "lirs", 0x4d0f350681c80920ULL, 0x07abcc812b59163cULL, 1289, 11211, 10313, 85, 1305, 1220, 9, 889, 2324},
    {"major_cdn", 1, "lirs", 0xaa386aa099f09377ULL, 0xf4010752668d8103ULL, 442, 12058, 12048, 22, 472, 450, 1, 9, 30},
    {"major_cdn", 100, "lirs", 0xed084bc6244c5de4ULL, 0xc35c4e990f65205fULL, 3438, 9062, 8445, 114, 1672, 1558, 6, 611, 1263},
    {"tencent_photo", 1, "lirs", 0x623088390c2eb4c1ULL, 0x4f6af2b111f655deULL, 551, 11949, 11939, 38, 559, 521, 1, 9, 30},
    {"tencent_photo", 100, "lirs", 0x1494ce2bc9b3e769ULL, 0xe57d00cc8f518ffeULL, 3579, 8921, 8293, 154, 1597, 1443, 6, 622, 1507},
    {"wiki_cdn", 1, "lirs", 0xe49e525e93db0885ULL, 0x20323146455f730eULL, 1161, 11339, 11329, 63, 940, 877, 1, 9, 30},
    {"wiki_cdn", 100, "lirs", 0xa682e80e845c86c1ULL, 0x53d96aa61a26e21fULL, 5068, 7432, 6953, 314, 1610, 1296, 5, 474, 761},
    {"tencent_cbs", 1, "lirs", 0x34d733a02ed0b43bULL, 0x463fe70fe516a120ULL, 463, 12037, 12027, 76, 698, 622, 1, 9, 30},
    {"tencent_cbs", 100, "lirs", 0x9dab32f1ff1111e0ULL, 0xcc6e900a98f860adULL, 2572, 9928, 9057, 384, 1421, 1037, 9, 862, 1308},
    {"alibaba", 1, "lirs", 0x7b5a288287b2c3e7ULL, 0xe2c08881fca96f13ULL, 20, 12480, 12470, 7, 91, 84, 1, 9, 30},
    {"alibaba", 100, "lirs", 0xc52ec5251d42fd1eULL, 0x63cdb8d229647cb4ULL, 2223, 10277, 9385, 38, 844, 806, 9, 883, 2676},
    {"twitter", 1, "lirs", 0x70a5d8eae5040adaULL, 0xca6ef17c6031f544ULL, 3377, 9123, 9113, 51, 1262, 1211, 1, 9, 28},
    {"twitter", 100, "lirs", 0xf4975e3d472787e6ULL, 0x028c4a3c7222db44ULL, 7733, 4767, 4519, 38, 1032, 994, 2, 246, 331},
    {"social_network", 1, "lirs", 0x3bebfc40878f79caULL, 0xa6367f2810336a3dULL, 5370, 7130, 7120, 116, 1596, 1480, 1, 9, 19},
    {"social_network", 100, "lirs", 0x8492fd9792da9002ULL, 0x0d19ce1cb3fc8881ULL, 9362, 3138, 2977, 103, 891, 788, 2, 159, 151},
    {"msr", 1, "lecar", 0x7e06b64ab454b073ULL, 0xa15f9edf13fd30b6ULL, 131, 12369, 12359, 0, 0, 107, 0, 0, 0},
    {"msr", 100, "lecar", 0xdeb471e62014ab8fULL, 0x65b4ae0f88f04abeULL, 2371, 10129, 9182, 0, 0, 400, 0, 0, 0},
    {"fiu", 1, "lecar", 0xbe69672f26810bf6ULL, 0xd7754ad378fed6e7ULL, 214, 12286, 12276, 0, 0, 175, 0, 0, 0},
    {"fiu", 100, "lecar", 0xfc4f9c11d83b8a6aULL, 0xd2a31e728b3a5785ULL, 818, 11682, 10772, 0, 0, 2359, 0, 0, 0},
    {"cloudphysics", 1, "lecar", 0xd52a1277901faf09ULL, 0xd688664f1653760eULL, 125, 12375, 12365, 0, 0, 116, 0, 0, 0},
    {"cloudphysics", 100, "lecar", 0x4d0f350681c80920ULL, 0xa78aeae4922bc09bULL, 1980, 10520, 9622, 0, 0, 249, 0, 0, 0},
    {"major_cdn", 1, "lecar", 0x53bbc9369b1f528eULL, 0x5de80e8afaf5ef33ULL, 262, 12238, 12228, 0, 0, 363, 0, 0, 0},
    {"major_cdn", 100, "lecar", 0xed084bc6244c5de4ULL, 0xcbcd80d2b7c00040ULL, 3257, 9243, 8626, 0, 0, 1798, 0, 0, 0},
    {"tencent_photo", 1, "lecar", 0xd0f19e11f32acd00ULL, 0x1581d7eaf1e937a2ULL, 333, 12167, 12157, 0, 0, 424, 0, 0, 0},
    {"tencent_photo", 100, "lecar", 0x1494ce2bc9b3e769ULL, 0xf52c1220eaf10c24ULL, 3563, 8937, 8309, 0, 0, 1440, 0, 0, 0},
    {"wiki_cdn", 1, "lecar", 0xbdfd3175d7fa9424ULL, 0x0b1145e6bb0aec63ULL, 832, 11668, 11658, 0, 0, 796, 0, 0, 0},
    {"wiki_cdn", 100, "lecar", 0xa682e80e845c86c1ULL, 0x80fc0ee6f4d970ffULL, 5120, 7380, 6901, 0, 0, 1511, 0, 0, 0},
    {"tencent_cbs", 1, "lecar", 0x47fce58c3688d133ULL, 0x84152f09e8809a1fULL, 526, 11974, 11964, 0, 0, 406, 0, 0, 0},
    {"tencent_cbs", 100, "lecar", 0x9dab32f1ff1111e0ULL, 0xb2f00f3d81a135e2ULL, 2969, 9531, 8660, 0, 0, 533, 0, 0, 0},
    {"alibaba", 1, "lecar", 0x273460b570f9cb1cULL, 0x7b1c1a152dac97f5ULL, 48, 12452, 12442, 0, 0, 44, 0, 0, 0},
    {"alibaba", 100, "lecar", 0xc52ec5251d42fd1eULL, 0x5a814298d33786f8ULL, 2763, 9737, 8845, 0, 0, 178, 0, 0, 0},
    {"twitter", 1, "lecar", 0x914dd61f24c8dfe4ULL, 0xf90b7cbc0bc8f9c7ULL, 2368, 10132, 10122, 0, 0, 1885, 0, 0, 0},
    {"twitter", 100, "lecar", 0xf4975e3d472787e6ULL, 0xc133ea02b9d6c648ULL, 7647, 4853, 4605, 0, 0, 1317, 0, 0, 0},
    {"social_network", 1, "lecar", 0x216369c8ab2064dfULL, 0x69b3a3e38a78799aULL, 4657, 7843, 7833, 0, 0, 2640, 0, 0, 0},
    {"social_network", 100, "lecar", 0x8492fd9792da9002ULL, 0xe95778f9f0cbbafeULL, 9763, 2737, 2576, 0, 0, 655, 0, 0, 0},
    {"msr", 1, "cacheus", 0x7e06b64ab454b073ULL, 0xd042ecda63999928ULL, 129, 12371, 12361, 0, 0, 119, 0, 0, 0},
    {"msr", 100, "cacheus", 0xdeb471e62014ab8fULL, 0xf05b7473b9f9ba13ULL, 2370, 10130, 9183, 0, 0, 403, 0, 0, 0},
    {"fiu", 1, "cacheus", 0xbe69672f26810bf6ULL, 0x98cab3fbe2b23998ULL, 211, 12289, 12279, 0, 0, 175, 0, 0, 0},
    {"fiu", 100, "cacheus", 0xfc4f9c11d83b8a6aULL, 0xd2a31e728b3a5785ULL, 818, 11682, 10772, 0, 0, 2359, 0, 0, 0},
    {"cloudphysics", 1, "cacheus", 0xd52a1277901faf09ULL, 0xd688664f1653760eULL, 125, 12375, 12365, 0, 0, 108, 0, 0, 0},
    {"cloudphysics", 100, "cacheus", 0x4d0f350681c80920ULL, 0xa78aeae4922bc09bULL, 1980, 10520, 9622, 0, 0, 250, 0, 0, 0},
    {"major_cdn", 1, "cacheus", 0x53bbc9369b1f528eULL, 0x961fe2df2541c2caULL, 257, 12243, 12233, 0, 0, 371, 0, 0, 0},
    {"major_cdn", 100, "cacheus", 0xed084bc6244c5de4ULL, 0x6f6504869b2c3d87ULL, 3302, 9198, 8581, 0, 0, 1739, 0, 0, 0},
    {"tencent_photo", 1, "cacheus", 0xc36545a91c3a72d7ULL, 0xc455a55761e5b231ULL, 332, 12168, 12158, 0, 0, 422, 0, 0, 0},
    {"tencent_photo", 100, "cacheus", 0x1494ce2bc9b3e769ULL, 0x9ac266aafa136512ULL, 3505, 8995, 8367, 0, 0, 1541, 0, 0, 0},
    {"wiki_cdn", 1, "cacheus", 0x091c4ac549cff3bdULL, 0xf48d384f32f30b21ULL, 824, 11676, 11666, 0, 0, 802, 0, 0, 0},
    {"wiki_cdn", 100, "cacheus", 0xa682e80e845c86c1ULL, 0x8727c22eef5ff1b2ULL, 5043, 7457, 6978, 0, 0, 1644, 0, 0, 0},
    {"tencent_cbs", 1, "cacheus", 0x47fce58c3688d133ULL, 0xa38996df3f186dacULL, 523, 11977, 11967, 0, 0, 399, 0, 0, 0},
    {"tencent_cbs", 100, "cacheus", 0x9dab32f1ff1111e0ULL, 0x58a92964a649a588ULL, 3001, 9499, 8628, 0, 0, 490, 0, 0, 0},
    {"alibaba", 1, "cacheus", 0x273460b570f9cb1cULL, 0x7b1c1a152dac97f5ULL, 48, 12452, 12442, 0, 0, 49, 0, 0, 0},
    {"alibaba", 100, "cacheus", 0xc52ec5251d42fd1eULL, 0x2d6080735440daffULL, 2762, 9738, 8846, 0, 0, 211, 0, 0, 0},
    {"twitter", 1, "cacheus", 0xd42c7f1033e8b16eULL, 0x80c3f1b6a46acd4aULL, 2329, 10171, 10161, 0, 0, 1931, 0, 0, 0},
    {"twitter", 100, "cacheus", 0xf4975e3d472787e6ULL, 0x20eb4f6416c16236ULL, 7637, 4863, 4615, 0, 0, 1345, 0, 0, 0},
    {"social_network", 1, "cacheus", 0xbf4d5fb2054d5d5cULL, 0xd82ce16ecb2de348ULL, 4633, 7867, 7857, 0, 0, 2725, 0, 0, 0},
    {"social_network", 100, "cacheus", 0x8492fd9792da9002ULL, 0xd8088f78791ef10aULL, 9721, 2779, 2618, 0, 0, 690, 0, 0, 0},
    {"msr", 1, "lhd", 0xeb855c9e8cfe51edULL, 0x8c5e8cbbf365a2a6ULL, 117, 12383, 12373, 0, 0, 0, 0, 0, 0},
    {"msr", 100, "lhd", 0xdeb471e62014ab8fULL, 0xfdeada111954203eULL, 2379, 10121, 9174, 0, 0, 0, 0, 0, 0},
    {"fiu", 1, "lhd", 0xbae95e30998a2dfbULL, 0x7e2ea47116f9ff15ULL, 190, 12310, 12300, 0, 0, 0, 0, 0, 0},
    {"fiu", 100, "lhd", 0xfc4f9c11d83b8a6aULL, 0x5b54a5170a431f4eULL, 1285, 11215, 10305, 0, 0, 0, 0, 0, 0},
    {"cloudphysics", 1, "lhd", 0x1c46258305bcf98bULL, 0x882a7a6394ca97ceULL, 117, 12383, 12373, 0, 0, 0, 0, 0, 0},
    {"cloudphysics", 100, "lhd", 0x4d0f350681c80920ULL, 0x19f88d1113904b03ULL, 2016, 10484, 9586, 0, 0, 0, 0, 0, 0},
    {"major_cdn", 1, "lhd", 0xc4ac9880c5930518ULL, 0x2f7c2d7126ee9e30ULL, 245, 12255, 12245, 0, 0, 0, 0, 0, 0},
    {"major_cdn", 100, "lhd", 0xed084bc6244c5de4ULL, 0xa5c63c2c15a47d62ULL, 3147, 9353, 8736, 0, 0, 0, 0, 0, 0},
    {"tencent_photo", 1, "lhd", 0x7a5d65e815d17c80ULL, 0x54ea3085ab3d1e33ULL, 336, 12164, 12154, 0, 0, 0, 0, 0, 0},
    {"tencent_photo", 100, "lhd", 0x1494ce2bc9b3e769ULL, 0x4c556b9a499786daULL, 3399, 9101, 8473, 0, 0, 0, 0, 0, 0},
    {"wiki_cdn", 1, "lhd", 0x5f9b15769839c38eULL, 0x4caaca36d2d44acdULL, 894, 11606, 11596, 0, 0, 0, 0, 0, 0},
    {"wiki_cdn", 100, "lhd", 0xa682e80e845c86c1ULL, 0x52ae7f30a8e2b14aULL, 4905, 7595, 7116, 0, 0, 0, 0, 0, 0},
    {"tencent_cbs", 1, "lhd", 0x492142cde402df2eULL, 0x41b1814b2d2c5038ULL, 501, 11999, 11989, 0, 0, 0, 0, 0, 0},
    {"tencent_cbs", 100, "lhd", 0x9dab32f1ff1111e0ULL, 0x5b63d42f3f62c8daULL, 2893, 9607, 8736, 0, 0, 0, 0, 0, 0},
    {"alibaba", 1, "lhd", 0x273460b570f9cb1cULL, 0x33c1752fbbb21acfULL, 28, 12472, 12462, 0, 0, 0, 0, 0, 0},
    {"alibaba", 100, "lhd", 0xc52ec5251d42fd1eULL, 0x8ba2a9f5c4f6466dULL, 2762, 9738, 8846, 0, 0, 0, 0, 0, 0},
    {"twitter", 1, "lhd", 0xdf0bf14eb6e68404ULL, 0xd7769417cbbc75a2ULL, 2477, 10023, 10013, 0, 0, 0, 0, 0, 0},
    {"twitter", 100, "lhd", 0xf4975e3d472787e6ULL, 0x03b9439c93311336ULL, 7417, 5083, 4835, 0, 0, 0, 0, 0, 0},
    {"social_network", 1, "lhd", 0x1f2287c6c23755c0ULL, 0x7f101af014825c8fULL, 4714, 7786, 7776, 0, 0, 0, 0, 0, 0},
    {"social_network", 100, "lhd", 0x8492fd9792da9002ULL, 0x7661b7be1e9921edULL, 9538, 2962, 2801, 0, 0, 0, 0, 0, 0},
    {"msr", 1, "qd-arc", 0xc3d451eaa034e98eULL, 0xe6d4de0d9ea13278ULL, 87, 12413, 12403, 16, 12297, 99, 1, 9, 9},
    {"msr", 100, "qd-arc", 0xcd500bdbe1471627ULL, 0x51d34c4ef29f17baULL, 2025, 10475, 9528, 539, 9202, 639, 95, 852, 852},
    {"fiu", 1, "qd-arc", 0x8052a6e75048a09dULL, 0xcab8825a83caa429ULL, 218, 12282, 12272, 31, 12121, 129, 1, 9, 9},
    {"fiu", 100, "qd-arc", 0xa1337b338f760ae0ULL, 0x677c1f45fd92afcbULL, 884, 11616, 11203, 264, 11203, 58, 91, 322, 818},
    {"cloudphysics", 1, "qd-arc", 0x22d08344ee2a602eULL, 0xe99c54f5d3f59286ULL, 51, 12449, 12439, 19, 12332, 97, 1, 9, 9},
    {"cloudphysics", 100, "qd-arc", 0x34ffc34699270fbbULL, 0x2cca0afa8a34feb8ULL, 1621, 10879, 9981, 513, 9782, 494, 90, 808, 808},
    {"major_cdn", 1, "qd-arc", 0x53f61c47d37dfc4eULL, 0x925d7aa422669a65ULL, 296, 12204, 12194, 27, 11969, 207, 1, 9, 9},
    {"major_cdn", 100, "qd-arc", 0x540693066742d9efULL, 0xf0b7ecdb7d801e4aULL, 3591, 8909, 8292, 566, 7393, 888, 62, 555, 555},
    {"tencent_photo", 1, "qd-arc", 0xe744ac181b287d46ULL, 0xbeffa6128c4a915fULL, 384, 12116, 12106, 43, 11830, 242, 1, 9, 9},
    {"tencent_photo", 100, "qd-arc", 0xdac614481ddc952cULL, 0x24a1caba9385ac11ULL, 3810, 8690, 8062, 690, 7213, 724, 63, 565, 565},
    {"wiki_cdn", 1, "qd-arc", 0x878198a5582d0c87ULL, 0x83e336a249524239ULL, 1074, 11426, 11416, 81, 10859, 485, 1, 9, 9},
    {"wiki_cdn", 100, "qd-arc", 0x6de4fa8f164f309cULL, 0x1ab47a0a693cf8ebULL, 5374, 7126, 6647, 871, 5505, 702, 48, 431, 431},
    {"tencent_cbs", 1, "qd-arc", 0x34d733a02ed0b43bULL, 0xe50df7bf0d869b5aULL, 397, 12103, 12093, 81, 11669, 352, 1, 9, 9},
    {"tencent_cbs", 100, "qd-arc", 0xde269a8019f26a83ULL, 0x413ce6954b44b498ULL, 2805, 9695, 8824, 1002, 8104, 502, 87, 784, 784},
    {"alibaba", 1, "qd-arc", 0x7b5a288287b2c3e7ULL, 0xd92321aaade4ebb5ULL, 16, 12484, 12474, 9, 12435, 39, 1, 9, 9},
    {"alibaba", 100, "qd-arc", 0xd71d9c82d64bc87cULL, 0x91aa5c5184fbf1ddULL, 2198, 10302, 9410, 518, 9076, 619, 89, 803, 803},
    {"twitter", 1, "qd-arc", 0x798e29dc7b8e4f76ULL, 0xf2fb7f0cb97e2dd5ULL, 3676, 8824, 8814, 54, 8308, 461, 1, 9, 9},
    {"twitter", 100, "qd-arc", 0x47f9f9353fbc3695ULL, 0xf893ff80299ba257ULL, 8192, 4308, 4060, 511, 3328, 444, 25, 223, 223},
    {"social_network", 1, "qd-arc", 0xfeb98d4ff281ef4aULL, 0xa82dc04e51b77b40ULL, 5463, 7037, 7027, 135, 5879, 1022, 1, 9, 9},
    {"social_network", 100, "qd-arc", 0x2319f0410f64511aULL, 0xed1eed41c34bbc85ULL, 9992, 2508, 2347, 668, 1568, 256, 16, 145, 145},
    {"msr", 1, "qd-lirs", 0xd148247b26a01e86ULL, 0x0ab69c839c75ec72ULL, 85, 12415, 12405, 16, 12299, 99, 1, 9, 9},
    {"msr", 100, "qd-lirs", 0xcd500bdbe1471627ULL, 0xc8709915b2d86622ULL, 1709, 10791, 9844, 634, 9325, 737, 95, 852, 852},
    {"fiu", 1, "qd-lirs", 0x44720230a62d3404ULL, 0xdf6bdb3ca58ae35dULL, 148, 12352, 12342, 30, 12186, 135, 1, 9, 9},
    {"fiu", 100, "qd-lirs", 0xa1337b338f760ae0ULL, 0x677c1f45fd92afcbULL, 884, 11616, 11203, 264, 11203, 58, 91, 322, 818},
    {"cloudphysics", 1, "qd-lirs", 0x82cbd89106b59eddULL, 0x979397cfcef172a5ULL, 48, 12452, 12442, 19, 12335, 97, 1, 9, 9},
    {"cloudphysics", 100, "qd-lirs", 0x34ffc34699270fbbULL, 0xfbcd95b49e158f47ULL, 1584, 10916, 10018, 513, 9816, 497, 90, 808, 808},
    {"major_cdn", 1, "qd-lirs", 0x53f61c47d37dfc4eULL, 0x98355092d2ec040fULL, 262, 12238, 12228, 27, 12003, 207, 1, 9, 9},
    {"major_cdn", 100, "qd-lirs", 0x540693066742d9efULL, 0xdcacdb45194ca328ULL, 3193, 9307, 8690, 609, 7616, 1020, 62, 555, 554},
    {"tencent_photo", 1, "qd-lirs", 0xe744ac181b287d46ULL, 0x4c0138c11a085c2dULL, 322, 12178, 12168, 43, 11890, 244, 1, 9, 9},
    {"tencent_photo", 100, "qd-lirs", 0xdac614481ddc952cULL, 0x96f989f4cb8b9bd5ULL, 3360, 9140, 8512, 737, 7455, 885, 63, 565, 565},
    {"wiki_cdn", 1, "qd-lirs", 0xa7d54221bab4dc94ULL, 0x6d3694935dd31666ULL, 851, 11649, 11639, 81, 11062, 505, 1, 9, 9},
    {"wiki_cdn", 100, "qd-lirs", 0x6de4fa8f164f309cULL, 0xf30993f2e4d01937ULL, 4752, 7748, 7269, 978, 5789, 933, 48, 431, 431},
    {"tencent_cbs", 1, "qd-lirs", 0x34d733a02ed0b43bULL, 0x249f59c0c390a488ULL, 289, 12211, 12201, 81, 11769, 360, 1, 9, 9},
    {"tencent_cbs", 100, "qd-lirs", 0xde269a8019f26a83ULL, 0xbd1ae67f0b293e40ULL, 2575, 9925, 9054, 1003, 8292, 543, 87, 784, 783},
    {"alibaba", 1, "qd-lirs", 0x7b5a288287b2c3e7ULL, 0x3d8af5caa65bb573ULL, 16, 12484, 12474, 9, 12435, 39, 1, 9, 9},
    {"alibaba", 100, "qd-lirs", 0xd71d9c82d64bc87cULL, 0x9ea2bed8bcf74be0ULL, 1901, 10599, 9707, 607, 9181, 722, 89, 803, 803},
    {"twitter", 1, "qd-lirs", 0x487e6328b23f1420ULL, 0x6b31386062287718ULL, 3763, 8737, 8727, 54, 8236, 446, 1, 9, 9},
    {"twitter", 100, "qd-lirs", 0x47f9f9353fbc3695ULL, 0x42973ebc4740701eULL, 8185, 4315, 4067, 511, 3342, 437, 25, 223, 223},
    {"social_network", 1, "qd-lirs", 0x0fe4407cc6db98f1ULL, 0x0eb8880dfd7367fdULL, 5482, 7018, 7008, 122, 5895, 1000, 1, 9, 9},
    {"social_network", 100, "qd-lirs", 0x2319f0410f64511aULL, 0x2400814e1aa90627ULL, 9954, 2546, 2385, 671, 1601, 258, 16, 145, 145},
    {"msr", 1, "qd-lecar", 0xc3d451eaa034e98eULL, 0xd180f03fdec8841fULL, 110, 12390, 12380, 16, 12274, 99, 1, 9, 9},
    {"msr", 100, "qd-lecar", 0xcd500bdbe1471627ULL, 0x34164809192e146eULL, 2021, 10479, 9532, 538, 9206, 640, 95, 852, 852},
    {"fiu", 1, "qd-lecar", 0x757479b17ad9c3dfULL, 0x3d030a5413148036ULL, 207, 12293, 12283, 30, 12131, 131, 1, 9, 9},
    {"fiu", 100, "qd-lecar", 0xa1337b338f760ae0ULL, 0x677c1f45fd92afcbULL, 884, 11616, 11203, 264, 11203, 58, 91, 322, 818},
    {"cloudphysics", 1, "qd-lecar", 0x22d08344ee2a602eULL, 0x30843d2dffcd7d52ULL, 71, 12429, 12419, 19, 12312, 97, 1, 9, 9},
    {"cloudphysics", 100, "qd-lecar", 0x34ffc34699270fbbULL, 0xeec2ba304cc4da14ULL, 1623, 10877, 9979, 513, 9780, 494, 90, 808, 808},
    {"major_cdn", 1, "qd-lecar", 0x53f61c47d37dfc4eULL, 0xc78362ef43cbd39aULL, 317, 12183, 12173, 27, 11948, 207, 1, 9, 9},
    {"major_cdn", 100, "qd-lecar", 0x540693066742d9efULL, 0x2c053956ccc7711fULL, 3636, 8864, 8247, 566, 7361, 875, 62, 555, 554},
    {"tencent_photo", 1, "qd-lecar", 0xe744ac181b287d46ULL, 0x35e28fd2df91f7b4ULL, 415, 12085, 12075, 42, 11803, 239, 1, 9, 9},
    {"tencent_photo", 100, "qd-lecar", 0xdac614481ddc952cULL, 0x5a83b995cab1f18dULL, 3890, 8610, 7982, 689, 7160, 698, 63, 565, 565},
    {"wiki_cdn", 1, "qd-lecar", 0xd093ace89ee61ae9ULL, 0x4e22ad51081948deULL, 1049, 11451, 11441, 81, 10887, 482, 1, 9, 9},
    {"wiki_cdn", 100, "qd-lecar", 0x6de4fa8f164f309cULL, 0xb0113e7a843622bfULL, 5412, 7088, 6609, 873, 5485, 682, 48, 431, 431},
    {"tencent_cbs", 1, "qd-lecar", 0x34d733a02ed0b43bULL, 0xee750d276712bff2ULL, 399, 12101, 12091, 79, 11668, 353, 1, 9, 9},
    {"tencent_cbs", 100, "qd-lecar", 0xde269a8019f26a83ULL, 0x819eee2fbef6766dULL, 2858, 9642, 8771, 1000, 8057, 498, 87, 784, 784},
    {"alibaba", 1, "qd-lecar", 0x7b5a288287b2c3e7ULL, 0xfef90b737540a036ULL, 17, 12483, 12473, 9, 12434, 39, 1, 9, 9},
    {"alibaba", 100, "qd-lecar", 0xd71d9c82d64bc87cULL, 0xe745a04d0b5d47b8ULL, 2199, 10301, 9409, 518, 9075, 619, 89, 803, 803},
    {"twitter", 1, "qd-lecar", 0xd7058619d9a752f1ULL, 0x19eaccb436a7cf4fULL, 3632, 8868, 8858, 52, 8337, 478, 1, 9, 9},
    {"twitter", 100, "qd-lecar", 0x47f9f9353fbc3695ULL, 0x63d4fd53a0aa3fc2ULL, 8017, 4483, 4235, 531, 3425, 502, 25, 223, 223},
    {"social_network", 1, "qd-lecar", 0xc50e21a483940932ULL, 0xa46a5aa93c65757cULL, 5501, 6999, 6989, 135, 5852, 1011, 1, 9, 9},
    {"social_network", 100, "qd-lecar", 0x2319f0410f64511aULL, 0x3017e9f28b299f74ULL, 9817, 2683, 2522, 726, 1643, 298, 16, 145, 145},
    {"msr", 1, "qd-cacheus", 0xc3d451eaa034e98eULL, 0xc2f6401cf5887b15ULL, 108, 12392, 12382, 16, 12276, 99, 1, 9, 9},
    {"msr", 100, "qd-cacheus", 0xcd500bdbe1471627ULL, 0x34164809192e146eULL, 2021, 10479, 9532, 538, 9206, 640, 95, 852, 852},
    {"fiu", 1, "qd-cacheus", 0x566b6844f9e3a1e6ULL, 0xac6f25f13d6548b6ULL, 207, 12293, 12283, 30, 12135, 127, 1, 9, 9},
    {"fiu", 100, "qd-cacheus", 0xa1337b338f760ae0ULL, 0x677c1f45fd92afcbULL, 884, 11616, 11203, 264, 11203, 58, 91, 322, 818},
    {"cloudphysics", 1, "qd-cacheus", 0x22d08344ee2a602eULL, 0x8f0114be8da951a7ULL, 68, 12432, 12422, 19, 12315, 97, 1, 9, 9},
    {"cloudphysics", 100, "qd-cacheus", 0x34ffc34699270fbbULL, 0xeec2ba304cc4da14ULL, 1623, 10877, 9979, 513, 9780, 494, 90, 808, 808},
    {"major_cdn", 1, "qd-cacheus", 0x53f61c47d37dfc4eULL, 0xfa06b1013986711dULL, 314, 12186, 12176, 27, 11950, 208, 1, 9, 9},
    {"major_cdn", 100, "qd-cacheus", 0x540693066742d9efULL, 0xcb75ccdf242775e5ULL, 3630, 8870, 8253, 565, 7366, 877, 62, 555, 555},
    {"tencent_photo", 1, "qd-cacheus", 0xe744ac181b287d46ULL, 0x690f0ea80bcb3c0aULL, 421, 12079, 12069, 43, 11795, 240, 1, 9, 9},
    {"tencent_photo", 100, "qd-cacheus", 0xdac614481ddc952cULL, 0x213dd6afbbb1d076ULL, 3891, 8609, 7981, 688, 7159, 699, 63, 565, 565},
    {"wiki_cdn", 1, "qd-cacheus", 0x262c2ef4ecf89a99ULL, 0xe4aaaa411123e0a6ULL, 1043, 11457, 11447, 81, 10894, 481, 1, 9, 9},
    {"wiki_cdn", 100, "qd-cacheus", 0x6de4fa8f164f309cULL, 0xced44e2a4797aad3ULL, 5420, 7080, 6601, 872, 5482, 678, 48, 431, 431},
    {"tencent_cbs", 1, "qd-cacheus", 0x34d733a02ed0b43bULL, 0x053e9d46d6b19ed7ULL, 404, 12096, 12086, 79, 11666, 350, 1, 9, 9},
    {"tencent_cbs", 100, "qd-cacheus", 0xde269a8019f26a83ULL, 0x0ce2382d6bfd999aULL, 2857, 9643, 8772, 1000, 8058, 498, 87, 784, 784},
    {"alibaba", 1, "qd-cacheus", 0x7b5a288287b2c3e7ULL, 0xfef90b737540a036ULL, 17, 12483, 12473, 9, 12434, 39, 1, 9, 9},
    {"alibaba", 100, "qd-cacheus", 0xd71d9c82d64bc87cULL, 0xe745a04d0b5d47b8ULL, 2199, 10301, 9409, 518, 9075, 619, 89, 803, 803},
    {"twitter", 1, "qd-cacheus", 0x32d81190f406a02fULL, 0xc4c174ebebf384dfULL, 3644, 8856, 8846, 52, 8326, 477, 1, 9, 9},
    {"twitter", 100, "qd-cacheus", 0x47f9f9353fbc3695ULL, 0xca4fdc60a93a1c13ULL, 8018, 4482, 4234, 530, 3423, 504, 25, 223, 223},
    {"social_network", 1, "qd-cacheus", 0x73541eb8fc1a9280ULL, 0x568ce8a7a54fe39dULL, 5494, 7006, 6996, 136, 5860, 1009, 1, 9, 9},
    {"social_network", 100, "qd-cacheus", 0x2319f0410f64511aULL, 0x02cbfe711d8d7710ULL, 9817, 2683, 2522, 727, 1643, 297, 16, 145, 145},
    {"msr", 1, "qd-lhd", 0x6aae52cd075f7a69ULL, 0xb07b4e3dd840940fULL, 98, 12402, 12392, 16, 12285, 100, 1, 9, 9},
    {"msr", 100, "qd-lhd", 0xcd500bdbe1471627ULL, 0x86eae1b59e6cca0cULL, 2021, 10479, 9532, 539, 9206, 639, 95, 852, 852},
    {"fiu", 1, "qd-lhd", 0xa292c21ce3e269b3ULL, 0x5145403effe35654ULL, 205, 12295, 12285, 32, 12134, 128, 1, 9, 9},
    {"fiu", 100, "qd-lhd", 0xa1337b338f760ae0ULL, 0x677c1f45fd92afcbULL, 884, 11616, 11203, 264, 11203, 58, 91, 322, 818},
    {"cloudphysics", 1, "qd-lhd", 0x22d08344ee2a602eULL, 0xfcacaae9f7735787ULL, 62, 12438, 12428, 19, 12321, 97, 1, 9, 9},
    {"cloudphysics", 100, "qd-lhd", 0x34ffc34699270fbbULL, 0x8813dd673c696e54ULL, 1623, 10877, 9979, 513, 9780, 494, 90, 808, 808},
    {"major_cdn", 1, "qd-lhd", 0x53f61c47d37dfc4eULL, 0x433aa228de03621cULL, 297, 12203, 12193, 27, 11968, 207, 1, 9, 9},
    {"major_cdn", 100, "qd-lhd", 0x540693066742d9efULL, 0x64b4a7347d023a9bULL, 3630, 8870, 8253, 559, 7377, 872, 62, 555, 555},
    {"tencent_photo", 1, "qd-lhd", 0xe744ac181b287d46ULL, 0xd96b55b59d40320dULL, 406, 12094, 12084, 42, 11811, 240, 1, 9, 9},
    {"tencent_photo", 100, "qd-lhd", 0xdac614481ddc952cULL, 0x9f85871e5780b843ULL, 3890, 8610, 7982, 687, 7162, 698, 63, 565, 565},
    {"wiki_cdn", 1, "qd-lhd", 0x76d7eca732fdbfd8ULL, 0xeca4cd382b36f1f3ULL, 996, 11504, 11494, 77, 10939, 487, 1, 9, 9},
    {"wiki_cdn", 100, "qd-lhd", 0x6de4fa8f164f309cULL, 0x3ee856beaeb495f9ULL, 5392, 7108, 6629, 864, 5515, 681, 48, 431, 431},
    {"tencent_cbs", 1, "qd-lhd", 0x34d733a02ed0b43bULL, 0xe40d100d64562133ULL, 384, 12116, 12106, 82, 11681, 352, 1, 9, 9},
    {"tencent_cbs", 100, "qd-lhd", 0xde269a8019f26a83ULL, 0x9642e775a6a81f30ULL, 2829, 9671, 8800, 1001, 8080, 503, 87, 784, 784},
    {"alibaba", 1, "qd-lhd", 0x7b5a288287b2c3e7ULL, 0xfd367419afba9816ULL, 17, 12483, 12473, 9, 12434, 39, 1, 9, 9},
    {"alibaba", 100, "qd-lhd", 0xd71d9c82d64bc87cULL, 0x595efe1697249444ULL, 2197, 10303, 9411, 518, 9077, 619, 89, 803, 803},
    {"twitter", 1, "qd-lhd", 0xdd4c65e548a50797ULL, 0xf9afaf9030e2b7cfULL, 3520, 8980, 8970, 54, 8403, 522, 1, 9, 9},
    {"twitter", 100, "qd-lhd", 0x47f9f9353fbc3695ULL, 0xa798da3693f7ed10ULL, 7839, 4661, 4413, 555, 3508, 573, 25, 223, 223},
    {"social_network", 1, "qd-lhd", 0x23e9161003df7ce5ULL, 0xbfc9603caa39fb20ULL, 5369, 7131, 7121, 144, 5929, 1057, 1, 9, 9},
    {"social_network", 100, "qd-lhd", 0x2319f0410f64511aULL, 0x1579e312878ce145ULL, 9728, 2772, 2611, 755, 1675, 326, 16, 145, 145},
};
// clang-format on

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// Replays `ids` through `policy`, hashing one byte per request.
template <typename Id>
Golden Replay(EvictionPolicy& policy, const std::vector<Id>& ids) {
  Golden row{};
  row.prefix_hash = kFnvOffset;
  row.hash = kFnvOffset;
  const size_t n = kPrefixOnly ? std::min(kPrefixRequests, ids.size())
                               : ids.size();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t hit = policy.Access(ids[i]) ? 1 : 0;
    row.hash = (row.hash ^ hit) * kFnvPrime;
    if (i + 1 == kPrefixRequests) {
      row.prefix_hash = row.hash;
    }
  }
  const CacheStats stats = policy.Stats();
  row.hits = stats.hits;
  row.inserts = stats.inserts;
  row.evictions = stats.evictions;
  row.promotions = stats.promotions;
  row.demotions = stats.demotions;
  row.ghost_hits = stats.ghost_hits;
  row.probation_size = stats.probation_size;
  row.main_size = stats.main_size;
  row.ghost_size = stats.ghost_size;
  return row;
}

std::string RowText(const Golden& row) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %d, \"%s\", 0x%016llxULL, 0x%016llxULL, %llu, %llu, "
                "%llu, %llu, %llu, %llu, %llu, %llu, %llu},",
                row.family, row.per_mille, row.policy,
                static_cast<unsigned long long>(row.prefix_hash),
                static_cast<unsigned long long>(row.hash),
                static_cast<unsigned long long>(row.hits),
                static_cast<unsigned long long>(row.inserts),
                static_cast<unsigned long long>(row.evictions),
                static_cast<unsigned long long>(row.promotions),
                static_cast<unsigned long long>(row.demotions),
                static_cast<unsigned long long>(row.ghost_hits),
                static_cast<unsigned long long>(row.probation_size),
                static_cast<unsigned long long>(row.main_size),
                static_cast<unsigned long long>(row.ghost_size));
  return buf;
}

const Golden* FindGolden(const std::string& family, int per_mille,
                         const std::string& policy) {
  for (const Golden& golden : kGoldens) {
    if (family == golden.family && per_mille == golden.per_mille &&
        policy == golden.policy) {
      return &golden;
    }
  }
  return nullptr;
}

// Compares a replay against its golden row: the prefix hash always, the
// whole-trace hash and final counts when the whole trace was replayed.
void ExpectMatchesGolden(const Golden& actual) {
  const Golden* golden =
      FindGolden(actual.family, actual.per_mille, actual.policy);
  ASSERT_NE(golden, nullptr) << "no golden row; actual:\n" << RowText(actual);
  const std::string where = std::string(actual.family) + " " +
                            std::to_string(actual.per_mille) + "permille " +
                            actual.policy;
  EXPECT_EQ(actual.prefix_hash, golden->prefix_hash)
      << where << "\nactual: " << RowText(actual);
  if (kPrefixOnly) {
    return;
  }
  EXPECT_EQ(RowText(actual), RowText(*golden)) << where;
}

const char* const kPolicies[] = {
    "arc",    "arc-slow", "arc-fixed",  "lirs",     "lecar",  "cacheus",
    "lhd",    "qd-arc",   "qd-lirs",    "qd-lecar", "qd-cacheus", "qd-lhd",
};

struct GridCase {
  Trace trace;
  int per_mille;
  size_t cache_size;
};

// The first trace of every Table-1 family at 0.1% and 10% of its objects.
const std::vector<GridCase>& GridCases() {
  static const std::vector<GridCase> cases = [] {
    std::vector<GridCase> built;
    for (const DatasetSpec& spec : Table1Datasets()) {
      const Trace trace = MakeTrace(spec, 0, kGridScale);
      for (const int per_mille : {1, 100}) {
        built.push_back(GridCase{
            trace, per_mille,
            CacheSizeForFraction(trace, per_mille / 1000.0)});
      }
    }
    return built;
  }();
  return cases;
}

class Fig5GoldenTest : public ::testing::TestWithParam<const char*> {};

// MakePolicy's policy fed the original ids.
TEST_P(Fig5GoldenTest, FlatLaneMatchesTable) {
  const std::string policy_name = GetParam();
  for (const GridCase& grid : GridCases()) {
    const auto policy = MakePolicy(policy_name, grid.cache_size);
    ASSERT_NE(policy, nullptr) << policy_name;
    Golden actual = Replay(*policy, grid.trace.requests);
    actual.family = grid.trace.dataset.c_str();
    actual.per_mille = grid.per_mille;
    actual.policy = policy_name.c_str();
    ExpectMatchesGolden(actual);
  }
}

// MakeDensePolicy's variant fed DensifyTrace's ids, as the sweep's dense
// lane runs it.
TEST_P(Fig5GoldenTest, DenseLaneMatchesTable) {
  const std::string policy_name = GetParam();
  ASSERT_TRUE(HasDenseVariant(policy_name));
  for (const GridCase& grid : GridCases()) {
    const DenseTrace dense = DensifyTrace(grid.trace);
    const auto policy =
        MakeDensePolicy(policy_name, grid.cache_size, dense.num_objects());
    ASSERT_NE(policy, nullptr) << policy_name;
    Golden actual = Replay(*policy, dense.requests);
    actual.family = grid.trace.dataset.c_str();
    actual.per_mille = grid.per_mille;
    actual.policy = policy_name.c_str();
    ExpectMatchesGolden(actual);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig5, Fig5GoldenTest, ::testing::ValuesIn(kPolicies),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace qdlp
