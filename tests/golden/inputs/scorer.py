import json, sys
mode = sys.argv[1]
print(json.dumps({"protocol": "rmbr-scorer/1"}), flush=True)
sys.stdin.readline()
for line in sys.stdin:
    req = json.loads(line)
    if mode in ("error3", "stall3") and req["src"] == "source 3":
        if mode == "error3":
            print('{"id": %d, "error": "boom"}' % req["id"], flush=True)
        continue
    if mode == "nan":
        score = "NaN"
    elif mode == "huge":
        score = "1e308"
    else:
        hyp, ref = set(req["hyp"].split()), set(req["ref"].split())
        score = repr(2.0 * len(hyp & ref) / (len(hyp) + len(ref)))
    print('{"id": %d, "score": %s}' % (req["id"], score), flush=True)
