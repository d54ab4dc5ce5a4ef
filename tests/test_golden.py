"""Fixed-seed golden digests and validation output.

The digests pin the graph file text and the topology file text that
``build_instance`` produces for every generator and model at seeds 0-2, so a
change to graph generation or topology sampling that moves a single bit of
either file fails here.  They were recorded before graphs held their edges as
arrays and LT topologies were sampled with numpy.
"""

import math
from pathlib import Path

import pytest

from netvax import IC, LT, Graph, validate
from netvax.bench import ExperimentConfig, build_instance

CITIES = str(Path(__file__).parent / "data" / "cities.csv")

GENERATORS = {
    "waxman": dict(generator="waxman", n=48, centers=3),
    "er": dict(generator="er", n=40, er_p=0.15),
    "city": dict(generator="city", csv_path=CITIES, scale_factor=10_000),
}

# (model, generator, seed) -> (graph.digest(), topologies.digest()), s = 20
GOLDEN = {
    ("LT", "waxman", 0): ("c680e8fbd4a79166a9867f962fa6eef1204c3be7e6dbc07d034907b7b366531c", "5e4f29382ae270db210cdc1038a57dac6d46381a2d21e02181518c2f5aa1e348"),
    ("LT", "waxman", 1): ("5ef5e4af438513dcd2d5c039b541a4d3a436caf2c1068882f7fae2bddf58f7da", "437d78c6efabded5c00fdec9561d48f2d9e758d28e410cfe91bcc407161f8617"),
    ("LT", "waxman", 2): ("36a9b60a3a6f99c7a6bc58516fd88226b9562e5c398307fccce4548147ff0c15", "51d820e3df174f28e19573309665e8d3b15ec62fd8f8cb58407245e566ece580"),
    ("LT", "er", 0): ("67fd542f7aef593c0d204e5e363a9370b847d9d3cd0c0324cac68ef9e5880756", "c116d5d3b3c8fee5644419df7d6ada3596e2463b3bc387e3cf71ae725364b4d2"),
    ("LT", "er", 1): ("572fb51ea1cf7ea0265f01fb363ddfbb94f07e327b5c71fe7b5e72a81fb5a3a3", "ad7236b2e03c854a6e63790d7e343c9a80f41372cdb1002cf6801414042c672e"),
    ("LT", "er", 2): ("cb61c804ea56a40f1994bd812f24c8723fc6731589bcb041420fab77789e3c32", "ac1db2ac9f0f6864612a147626e4308fa795e3e53df5cc1fd6254e7aeac121d1"),
    ("LT", "city", 0): ("9b9013c6310932308b7a267470a539a9f8d127c4c903ce513e96b173e785036f", "aba7f6800e8197d01a1de61931acc1836a2fca5a0bc0cc695cfc2c0e71551f22"),
    ("LT", "city", 1): ("9b5b60bcff93e831c6e63e43b59d39ea5385914e5a610a3dc868b89dad8df835", "ffc9933a1bc7a70d89eefb0c3d9090b616e49f9e03857799cd638b9d7e118e30"),
    ("LT", "city", 2): ("04f61b0272d8ae8f0781d8a8fb31974fc802e64bd1921d8f29bff4ce57348602", "f993068260a77ab1e985c712c2e3712d64bbe0621c9ea52efda54f28bf3b99d6"),
    ("IC", "waxman", 0): ("9e617e1136046e38ceaf79d12ae5ebc18695cb25218cb0a88a8b94ea074fd99c", "0820ecde37d56d4eb3ea2e1565c11f2d8c8136186c47546d8b59b7c358dfde07"),
    ("IC", "waxman", 1): ("9fb99720893b6626a0ec1a0f64735aae6292b64626bcaaca7a9fb3cf9fcfb169", "abe1f1228b5aa34fc1e23e297910075b5a4195ce403e512c6fa8113f060c3f55"),
    ("IC", "waxman", 2): ("f55841bf61c3068e4ea239db503c6a620a9797bec48500fa2268ab62bcf90aca", "e7d6b4ad10555aff66c6587f503ba7a70466a1de8c380f1895f864ce9b9b8737"),
    ("IC", "er", 0): ("a08b146aca5518b0cc7fa63f3506f92ee3cd10bbb4c7c68ec3e51daa2f7dd330", "e8a11f6a69364a76d63eebc744bdaa33184341ada6d438bb0247bbb6c03e975d"),
    ("IC", "er", 1): ("ef41d104db29022482490ee8c9b083a43c21eafd2f57f704c96a677b526cf641", "46fe0d64a0b73cac94d739b6739e6d5bfedc3ec6c4109cc02c3a361081674baf"),
    ("IC", "er", 2): ("21d7137268d684a1563fe5e9639e91238c1740a5effd00f9700e8106a39222b5", "e27a69fc609e000617976153b13964e0799fa2a65adfcb9c56542049617aff43"),
    ("IC", "city", 0): ("ef2f1e68492d2df93c7c3040202d2345d07e1773be50af07d4bc5063de7c93cd", "74f41292592f71800081035dd32bc3a44cfd660a373da260066d1276d4e80fd3"),
    ("IC", "city", 1): ("67738b33572e8321be427d647896b41198b067bdf22bd291ff5f78fec0e95cf6", "b8aa14c8a06c4087f3f288acfa69492a9c1ebfb38fac873e3aa68fb8f9e60665"),
    ("IC", "city", 2): ("e548064ce2999436c47f335ce2874988a7a59f1ae5203ac09b5ef4dbb231e090", "bfc137f410f06708720c1600d461d08e46d6c6932ae9626999d901e1230c7e66"),
}


@pytest.mark.parametrize("model, generator, seed", sorted(GOLDEN))
def test_build_instance_digests_are_pinned(model, generator, seed):
    config = ExperimentConfig(model=model, samples=20, seed=seed, **GENERATORS[generator])
    inst = build_instance(config, 0)
    assert (inst.graph.digest(), inst.topologies.digest()) == GOLDEN[model, generator, seed]


def test_lt_validate_output_is_pinned():
    # a self-loop, a repeated pair (twice), nan, values above 1 and below 0,
    # and three nodes whose incoming sums reach 1
    g = Graph(
        4,
        [
            (0, 1, 0.5), (1, 1, 0.2), (0, 1, 0.3), (2, 3, math.nan), (0, 2, 1.5),
            (1, 2, 0.7), (3, 0, -0.25), (2, 0, 0.7), (1, 0, 0.6), (0, 1, 0.3),
        ],
        LT,
    )
    assert [(v.subject, v.rule, v.detail) for v in validate(g).violations] == [
        ("edge (1,1)", "self-loop", "self-loops are not allowed"),
        ("edge (0,1)", "duplicate-edge", "duplicate (src,dst) pair"),
        ("edge (2,3)", "value-range", "weight nan out of [0,1]"),
        ("edge (0,2)", "value-range", "weight 1.5 out of [0,1]"),
        ("edge (3,0)", "value-range", "weight -0.25 out of [0,1]"),
        ("edge (0,1)", "duplicate-edge", "duplicate (src,dst) pair"),
        ("node 0", "lt-incoming-sum", "incoming sum 1.05 >= 1"),
        ("node 1", "lt-incoming-sum", "incoming sum 1.3 >= 1"),
        ("node 2", "lt-incoming-sum", "incoming sum 2.2 >= 1"),
    ]


def test_ic_validate_output_is_pinned():
    g = Graph(3, [(0, 0, 0.5), (0, 1, math.inf), (1, 2, -0.0), (0, 1, 0.2)], IC)
    assert [(v.subject, v.rule, v.detail) for v in validate(g).violations] == [
        ("edge (0,0)", "self-loop", "self-loops are not allowed"),
        ("edge (0,1)", "value-range", "probability inf out of [0,1]"),
        ("edge (0,1)", "duplicate-edge", "duplicate (src,dst) pair"),
    ]
